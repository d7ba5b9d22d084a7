#include <gtest/gtest.h>

#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

// samples_per_s is delivered / wall seconds of the timed region. A consumer
// that blocks (here: sleeps) for its samples uses almost no CPU, so a rate
// taken over its CPU time would come out orders of magnitude too high.
TEST(TimedRegion, RateIsItemsOverWallSeconds) {
  TimedRegion region;
  region.start();
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    region.add(1);
  }
  region.stop();
  EXPECT_EQ(region.items(), 40u);
  EXPECT_GE(region.wall_seconds(), 0.2);
  EXPECT_DOUBLE_EQ(region.rate(), 40.0 / region.wall_seconds());
  EXPECT_LE(region.rate(), 200.0);
  EXPECT_LT(region.cpu_seconds(), 0.5 * region.wall_seconds());
}

TEST(TimedRegion, FrozenAfterStop) {
  TimedRegion region;
  region.start();
  region.add(3);
  region.stop();
  const double wall = region.wall_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(region.wall_seconds(), wall);
  EXPECT_EQ(region.rate(), 3.0 / wall);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(quantile({0.0, 10.0}, 0.9), 9.0);
  EXPECT_EQ(quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 1.0), 5.0);
}

}  // namespace
}  // namespace perfbench
