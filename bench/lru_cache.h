// Byte-capacity LRU cache of sample ids, the compute-node raw-sample cache
// that ablation A7 (bench/ablation_cache.cc) runs against selective
// offloading and A14 (bench/ablation_prefetch.cc) serves hits from.
//
// The caching baselines the paper positions against (Quiver, SiloD, …) keep
// raw samples in compute-node memory/SSD; their benefit is bounded by local
// capacity. This LRU tracks which sample ids are resident and how many
// bytes they occupy; the payloads themselves stay in the simulator's
// accounting. Bench-local: only those two benches and their unit tests use
// it.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "util/check.h"
#include "util/units.h"

namespace sophon::bench {

class LruCache {
 public:
  /// A cache holding at most `capacity` bytes. Zero capacity = always miss.
  explicit LruCache(Bytes capacity) : capacity_(capacity) { SOPHON_CHECK(capacity.count() >= 0); }

  /// Record an access. On hit the entry is refreshed to MRU and `true` is
  /// returned; on miss the entry is inserted (evicting LRU entries until it
  /// fits) and `false` is returned. Entries larger than the whole capacity
  /// are never admitted.
  bool access(std::uint64_t id, Bytes size) {
    SOPHON_CHECK(size.count() > 0);
    if (const auto it = index_.find(id); it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh to MRU
      return true;
    }
    ++misses_;
    if (size > capacity_) return false;  // never admissible
    while (resident_ + size > capacity_ && !lru_.empty()) {
      const Entry& victim = lru_.back();
      resident_ -= victim.size;
      index_.erase(victim.id);
      lru_.pop_back();
      ++evictions_;
    }
    lru_.push_front({id, size});
    index_.emplace(id, lru_.begin());
    resident_ += size;
    return false;
  }

  /// Query residency without disturbing recency.
  [[nodiscard]] bool contains(std::uint64_t id) const { return index_.contains(id); }

  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes resident() const { return resident_; }
  [[nodiscard]] std::size_t entries() const { return index_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Drop everything (counters are kept).
  void clear() {
    lru_.clear();
    index_.clear();
    resident_ = Bytes(0);
  }

 private:
  struct Entry {
    std::uint64_t id;
    Bytes size;
  };

  Bytes capacity_;
  Bytes resident_;
  std::list<Entry> lru_;  // front = MRU, back = LRU
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace sophon::bench
