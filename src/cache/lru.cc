#include "cache/lru.h"

#include "util/check.h"

namespace sophon::cache {

LruCache::LruCache(Bytes capacity) : capacity_(capacity) {
  SOPHON_CHECK(capacity.count() >= 0);
}

bool LruCache::access(std::uint64_t id, Bytes size) {
  SOPHON_CHECK(size.count() > 0);
  if (const auto it = index_.find(id); it != index_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh to MRU
    return true;
  }
  ++misses_;
  if (size > capacity_) return false;  // never admissible
  evict_until_fits(size);
  lru_.push_front({id, size});
  index_.emplace(id, lru_.begin());
  resident_ += size;
  return false;
}

bool LruCache::contains(std::uint64_t id) const {
  return index_.contains(id);
}

void LruCache::evict_until_fits(Bytes incoming) {
  while (resident_ + incoming > capacity_ && !lru_.empty()) {
    const auto& victim = lru_.back();
    resident_ -= victim.size;
    index_.erase(victim.id);
    lru_.pop_back();
    ++evictions_;
  }
}

void LruCache::clear() {
  lru_.clear();
  index_.clear();
  resident_ = Bytes(0);
}

}  // namespace sophon::cache
