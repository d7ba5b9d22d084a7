#include "lru_cache.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace sophon::bench {
namespace {

TEST(Lru, MissThenHit) {
  LruCache cache(Bytes(1000));
  EXPECT_FALSE(cache.access(1, Bytes(100)));
  EXPECT_TRUE(cache.access(1, Bytes(100)));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident().count(), 100);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruCache cache(Bytes(300));
  cache.access(1, Bytes(100));
  cache.access(2, Bytes(100));
  cache.access(3, Bytes(100));
  // Touch 1 so 2 becomes LRU.
  EXPECT_TRUE(cache.access(1, Bytes(100)));
  // Insert 4: evicts 2.
  cache.access(4, Bytes(100));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Lru, EvictsMultipleForLargeEntry) {
  LruCache cache(Bytes(300));
  cache.access(1, Bytes(100));
  cache.access(2, Bytes(100));
  cache.access(3, Bytes(100));
  cache.access(4, Bytes(250));  // needs 2.5 slots → evicts 1, 2 (and 3)
  EXPECT_TRUE(cache.contains(4));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_LE(cache.resident(), cache.capacity());
}

TEST(Lru, OversizedEntryNeverAdmitted) {
  LruCache cache(Bytes(100));
  EXPECT_FALSE(cache.access(1, Bytes(500)));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.entries(), 0u);
  // And a second access is still a miss.
  EXPECT_FALSE(cache.access(1, Bytes(500)));
}

TEST(Lru, ZeroCapacityAlwaysMisses) {
  LruCache cache(Bytes(0));
  EXPECT_FALSE(cache.access(1, Bytes(1)));
  EXPECT_FALSE(cache.access(1, Bytes(1)));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Lru, ResidencyNeverExceedsCapacity) {
  LruCache cache(Bytes(1000));
  for (std::uint64_t id = 0; id < 200; ++id) {
    cache.access(id, Bytes(static_cast<std::int64_t>(37 + (id * 13) % 113)));
    EXPECT_LE(cache.resident(), cache.capacity());
  }
}

TEST(Lru, ContainsDoesNotRefreshRecency) {
  LruCache cache(Bytes(200));
  cache.access(1, Bytes(100));
  cache.access(2, Bytes(100));
  // contains(1) must NOT promote 1.
  EXPECT_TRUE(cache.contains(1));
  cache.access(3, Bytes(100));  // evicts 1 (true LRU)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Lru, ClearDropsEntriesKeepsCounters) {
  LruCache cache(Bytes(500));
  cache.access(1, Bytes(100));
  cache.access(1, Bytes(100));
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.resident().count(), 0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(Lru, RejectsBadArguments) {
  EXPECT_THROW(LruCache(Bytes(-1)), ContractViolation);
  LruCache cache(Bytes(10));
  EXPECT_THROW((void)cache.access(1, Bytes(0)), ContractViolation);
}

}  // namespace
}  // namespace sophon::bench
