#include "prefetch/staging_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cache/lru.h"
#include "prefetch/admission.h"
#include "prefetch/metrics.h"

namespace sophon::prefetch {
namespace {

net::FetchResponse response_of(std::uint64_t id, std::size_t bytes) {
  net::FetchResponse response;
  response.sample_id = id;
  response.payload.resize(bytes, std::uint8_t{0xAB});
  return response;
}

PrefetchOptions depth_options(std::size_t depth) {
  PrefetchOptions options;
  options.depth = depth;
  return options;
}

TEST(StagingBuffer, ReserveCommitClaimRoundTrip) {
  StagingBuffer buffer(depth_options(2), nullptr);
  ASSERT_EQ(buffer.reserve(0, Bytes(0), true), StagingBuffer::Reserve::kOk);
  buffer.commit(0, response_of(7, 100));
  EXPECT_EQ(buffer.staged(), 1u);
  EXPECT_EQ(buffer.staged_bytes(), Bytes(100));
  const auto claimed = buffer.claim(0);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->response.sample_id, 7u);
  EXPECT_FALSE(claimed->late);
  EXPECT_EQ(buffer.hits(), 1u);
  EXPECT_EQ(buffer.late_hits(), 0u);
  EXPECT_EQ(buffer.staged(), 0u);
}

TEST(StagingBuffer, DepthCreditsLimitReservations) {
  StagingBuffer buffer(depth_options(2), nullptr);
  ASSERT_EQ(buffer.reserve(0, Bytes(0), true), StagingBuffer::Reserve::kOk);
  ASSERT_EQ(buffer.reserve(1, Bytes(0), true), StagingBuffer::Reserve::kOk);
  // Both credits in use: a non-blocking reserve must bounce.
  EXPECT_EQ(buffer.reserve(2, Bytes(0), false), StagingBuffer::Reserve::kNoCredit);
  buffer.commit(0, response_of(0, 10));
  (void)buffer.claim(0);  // frees one credit
  EXPECT_EQ(buffer.reserve(2, Bytes(0), false), StagingBuffer::Reserve::kOk);
}

TEST(StagingBuffer, BytesBudgetLimitsReservationsButNeverBlocksEmpty) {
  PrefetchOptions options = depth_options(8);
  options.bytes_budget = Bytes(150);
  StagingBuffer buffer(options, nullptr);
  // An empty buffer admits even an over-budget sample — otherwise the
  // scheduler would wedge on it forever.
  ASSERT_EQ(buffer.reserve(0, Bytes(1000), true), StagingBuffer::Reserve::kOk);
  EXPECT_EQ(buffer.reserve(1, Bytes(100), false), StagingBuffer::Reserve::kNoCredit);
  buffer.fail(0);
  EXPECT_EQ(buffer.reserve(1, Bytes(100), false), StagingBuffer::Reserve::kOk);
  EXPECT_EQ(buffer.reserve(2, Bytes(100), false), StagingBuffer::Reserve::kNoCredit);
}

TEST(StagingBuffer, ClaimOnUnreservedPositionLeavesConsumedMark) {
  StagingBuffer buffer(depth_options(4), nullptr);
  EXPECT_FALSE(buffer.claim(3).has_value());  // demand fallback
  // The scheduler later reaches position 3: the mark stops a double fetch.
  EXPECT_EQ(buffer.reserve(3, Bytes(0), true), StagingBuffer::Reserve::kConsumed);
  // And the mark is consumed by that reserve — the next epoch position at
  // this index would be fetchable again.
  EXPECT_EQ(buffer.reserve(3, Bytes(0), true), StagingBuffer::Reserve::kOk);
}

TEST(StagingBuffer, AdvanceCursorSkipsMarkingDecidedPositions) {
  StagingBuffer buffer(depth_options(4), nullptr);
  buffer.advance_cursor(5);
  // Claims below the cursor (scheduler already decided to skip those) must
  // not leave marks behind.
  EXPECT_FALSE(buffer.claim(2).has_value());
  EXPECT_EQ(buffer.reserve(6, Bytes(0), true), StagingBuffer::Reserve::kOk);
}

TEST(StagingBuffer, AdvanceCursorReapsStaleMarks) {
  StagingBuffer buffer(depth_options(4), nullptr);
  EXPECT_FALSE(buffer.claim(1).has_value());  // mark at 1
  buffer.advance_cursor(3);                   // scheduler skipped past it
  // Nothing observable should remain; a fresh reserve at 1 succeeds.
  EXPECT_EQ(buffer.reserve(1, Bytes(0), true), StagingBuffer::Reserve::kOk);
}

TEST(StagingBuffer, ClaimBlocksOnInFlightUntilCommit) {
  StagingBuffer buffer(depth_options(2), nullptr);
  ASSERT_EQ(buffer.reserve(0, Bytes(0), true), StagingBuffer::Reserve::kOk);
  std::atomic<bool> claimed{false};
  std::thread consumer([&] {
    const auto got = buffer.claim(0);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->late);
    claimed.store(true);
  });
  // Give the consumer a chance to block, then deliver.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(claimed.load());
  buffer.commit(0, response_of(0, 8));
  consumer.join();
  EXPECT_TRUE(claimed.load());
  EXPECT_EQ(buffer.late_hits(), 1u);
}

TEST(StagingBuffer, FailedSlotFallsThroughToDemand) {
  StagingBuffer buffer(depth_options(2), nullptr);
  ASSERT_EQ(buffer.reserve(0, Bytes(0), true), StagingBuffer::Reserve::kOk);
  buffer.fail(0);
  EXPECT_FALSE(buffer.claim(0).has_value());
  EXPECT_EQ(buffer.hits(), 0u);
}

TEST(StagingBuffer, ShutdownWakesBlockedClaimAndCountsCancellations) {
  StagingBuffer buffer(depth_options(4), nullptr);
  ASSERT_EQ(buffer.reserve(0, Bytes(0), true), StagingBuffer::Reserve::kOk);
  ASSERT_EQ(buffer.reserve(1, Bytes(0), true), StagingBuffer::Reserve::kOk);
  buffer.commit(1, response_of(1, 50));
  std::thread consumer([&] { EXPECT_FALSE(buffer.claim(0).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  buffer.shutdown();
  consumer.join();
  EXPECT_EQ(buffer.cancelled(), 2u);  // one in flight + one staged
  EXPECT_EQ(buffer.reserve(2, Bytes(0), true), StagingBuffer::Reserve::kShutdown);
  EXPECT_FALSE(buffer.claim(5).has_value());
}

TEST(StagingBuffer, HorizonBoundsSchedulerLead) {
  StagingBuffer buffer(depth_options(2), nullptr);
  // Consumer is at 0 (never claimed): cursor may not pass the horizon,
  // 8 × depth = 16 positions.
  buffer.advance_cursor(17);
  EXPECT_EQ(buffer.reserve(17, Bytes(0), false), StagingBuffer::Reserve::kNoCredit);
  // Consumer progress re-opens the window.
  EXPECT_FALSE(buffer.claim(3).has_value());
  EXPECT_EQ(buffer.reserve(17, Bytes(0), false), StagingBuffer::Reserve::kOk);
}

TEST(StagingBuffer, GaugesTrackOccupancy) {
  MetricsRegistry metrics;
  register_prefetch_metrics(metrics);
  StagingBuffer buffer(depth_options(4), &metrics);
  ASSERT_EQ(buffer.reserve(0, Bytes(0), true), StagingBuffer::Reserve::kOk);
  buffer.commit(0, response_of(0, 64));
  EXPECT_EQ(metrics.gauge(kBufferDepth).value(), 1.0);
  EXPECT_EQ(metrics.gauge(kBufferBytes).value(), 64.0);
  (void)buffer.claim(0);
  EXPECT_EQ(metrics.gauge(kBufferDepth).value(), 0.0);
  EXPECT_EQ(metrics.counter(kHits).value(), 1u);
}

TEST(Admission, CacheResidentSamplesAreSkipped) {
  cache::LruCache cache(Bytes(1000));
  cache.access(3, Bytes(100));
  PrefetchOptions options = depth_options(4);
  options.cache = &cache;
  EXPECT_EQ(admit(options, 3, 0, Bytes(50000)), Admission::kSkip);
  EXPECT_EQ(admit(options, 4, 0, Bytes(50000)), Admission::kPrefetch);
  EXPECT_EQ(cache.resident_size(3), Bytes(100));
  EXPECT_EQ(cache.resident_size(4), Bytes(0));
}

TEST(Admission, TinyKnownPayloadsAreDeprioritized) {
  PrefetchOptions options = depth_options(4);
  options.deprioritize_below = Bytes(4096);
  EXPECT_EQ(admit(options, 0, 0, Bytes(1024)), Admission::kDeprioritize);
  EXPECT_EQ(admit(options, 0, 0, Bytes(300000)), Admission::kPrefetch);
  options.deprioritize_below = Bytes(0);
  EXPECT_EQ(admit(options, 0, 0, Bytes(1024)), Admission::kPrefetch);
}

TEST(Admission, OffloadedSamplesDeprioritizedWithoutSizeKnowledge) {
  PrefetchOptions options = depth_options(4);
  EXPECT_EQ(admit(options, 0, 2, std::nullopt), Admission::kDeprioritize);
  EXPECT_EQ(admit(options, 0, 0, std::nullopt), Admission::kPrefetch);
  options.deprioritize_offloaded = false;
  EXPECT_EQ(admit(options, 0, 2, std::nullopt), Admission::kPrefetch);
  // A known size overrides the directive heuristic.
  options.deprioritize_offloaded = true;
  EXPECT_EQ(admit(options, 0, 2, Bytes(300000)), Admission::kPrefetch);
}

}  // namespace
}  // namespace sophon::prefetch
