#include "paced_link.h"

#include <gtest/gtest.h>

#include <thread>

namespace perfbench {
namespace {

using sophon::net::FetchRequest;
using sophon::net::FetchResponse;

/// Replies to sample id n with an n-byte payload whose bytes are n % 256.
class SizedService final : public sophon::net::StorageService {
 public:
  FetchResponse fetch(const FetchRequest& request) override {
    FetchResponse response;
    response.sample_id = request.sample_id;
    response.payload.assign(request.sample_id, static_cast<std::uint8_t>(request.sample_id));
    return response;
  }
};

FetchRequest request_of(std::uint64_t bytes) {
  FetchRequest request;
  request.sample_id = bytes;
  return request;
}

TEST(PacedLink, TransfersAtTheConfiguredBandwidth) {
  SizedService inner;
  // 2 MB/s with 1 ms per message: 20 x 20 kB take 0.2 s + 20 ms.
  PacedLink link(inner, {.bytes_per_second = 2e6, .latency_seconds = 1e-3});
  const auto begin = Clock::now();
  for (int i = 0; i < 20; ++i) static_cast<void>(link.fetch(request_of(20000)));
  const double elapsed = seconds_since(begin);
  EXPECT_NEAR(elapsed, 0.22, 0.22 * 0.1);
  const auto stats = link.stats();
  EXPECT_EQ(stats.messages, 20u);
  EXPECT_EQ(stats.bytes, 400000);
  EXPECT_NEAR(stats.busy_seconds, 0.2, 1e-6);
}

TEST(PacedLink, ConcurrentSendersShareTheBandwidth) {
  SizedService inner;
  PacedLink link(inner, {.bytes_per_second = 4e6, .latency_seconds = 0.0});
  const auto begin = Clock::now();
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([&] {
      for (int i = 0; i < 10; ++i) static_cast<void>(link.fetch(request_of(20000)));
    });
  }
  for (auto& s : senders) s.join();
  // 800 kB at 4 MB/s: transmissions never overlap, so 0.2 s in total.
  EXPECT_NEAR(seconds_since(begin), 0.2, 0.02);
}

TEST(PacedLink, KeepsArrivalOrder) {
  SizedService inner;
  PacedLink link(inner, {.bytes_per_second = 1e6, .latency_seconds = 0.0});
  Clock::time_point big_done;
  Clock::time_point small_done;
  std::thread big([&] {
    static_cast<void>(link.fetch(request_of(100000)));  // holds the wire for 0.1 s
    big_done = Clock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  static_cast<void>(link.fetch(request_of(1)));  // arrives second: must not overtake
  small_done = Clock::now();
  big.join();
  EXPECT_GE(small_done, big_done - std::chrono::milliseconds(1));
  const auto waits = link.stats().queue_wait_seconds;
  ASSERT_EQ(waits.size(), 2u);
  EXPECT_NEAR(waits[1], 0.08, 0.015);  // the small message queued behind the big one
}

TEST(PacedLink, UnpacedLinkIsAPassthrough) {
  SizedService inner;
  PacedLink link(inner, {});
  EXPECT_FALSE(link.paced());
  const auto begin = Clock::now();
  const auto response = link.fetch(request_of(5000000));
  EXPECT_LT(seconds_since(begin), 0.05);
  EXPECT_EQ(response.sample_id, 5000000u);
  EXPECT_EQ(response.payload, inner.fetch(request_of(5000000)).payload);
  const auto stats = link.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 5000000);
  EXPECT_EQ(stats.busy_seconds, 0.0);
  EXPECT_TRUE(stats.queue_wait_seconds.empty());
}

}  // namespace
}  // namespace perfbench
