// Byte-capacity LRU cache of sample blobs (metadata-level).
//
// The caching baselines the paper positions against (Quiver, SiloD, …) keep
// raw samples in compute-node memory/SSD; their benefit is bounded by local
// capacity. This LRU tracks which sample ids are resident and how many
// bytes they occupy — payloads themselves live in the DatasetStore or the
// simulator's accounting, so the same cache drives both the real path and
// the discrete-event path.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "util/units.h"

namespace sophon::cache {

class LruCache {
 public:
  /// A cache holding at most `capacity` bytes. Zero capacity = always miss.
  explicit LruCache(Bytes capacity);

  /// Record an access. On hit the entry is refreshed to MRU and `true` is
  /// returned; on miss the entry is inserted (evicting LRU entries until it
  /// fits) and `false` is returned. Entries larger than the whole capacity
  /// are never admitted.
  bool access(std::uint64_t id, Bytes size);

  /// Query residency without disturbing recency.
  [[nodiscard]] bool contains(std::uint64_t id) const;

  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes resident() const { return resident_; }
  [[nodiscard]] std::size_t entries() const { return index_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Drop everything (counters are kept).
  void clear();

 private:
  struct Entry {
    std::uint64_t id;
    Bytes size;
  };

  void evict_until_fits(Bytes incoming);

  Bytes capacity_;
  Bytes resident_;
  std::list<Entry> lru_;  // front = MRU, back = LRU
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace sophon::cache
