#include "span_log.h"

#include <gtest/gtest.h>

#include <thread>

namespace perfbench {
namespace {

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

TEST(SpanLog, SelfTimeExcludesChildren) {
  SpanLog log(true);
  {
    const auto outer = log.span("outer", 7);
    sleep_ms(10);
    {
      const auto inner = log.span("inner", 7);
      sleep_ms(30);
    }
  }
  const auto records = log.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_STREQ(records[0].name, "inner");
  EXPECT_EQ(records[0].parent, records[1].id);
  EXPECT_EQ(records[1].parent, -1);
  EXPECT_EQ(records[0].sample, 7);
  const auto self = log.self_ms();
  EXPECT_NEAR(self.at("outer"), 10.0, 5.0);
  EXPECT_NEAR(self.at("inner"), 30.0, 5.0);
  EXPECT_NEAR(log.durations_ms("outer").front(), 40.0, 8.0);
}

TEST(SpanLog, ParentsArePerThread) {
  SpanLog log(true);
  {
    const auto outer = log.span("outer");
    std::thread other([&] { const auto s = log.span("other_thread"); });
    other.join();
  }
  const auto records = log.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_STREQ(records[0].name, "other_thread");
  EXPECT_EQ(records[0].parent, -1);
}

TEST(SpanLog, DisabledLogRecordsNothing) {
  SpanLog log(false);
  { const auto s = log.span("ignored"); }
  EXPECT_TRUE(log.records().empty());
  log.set_enabled(true);
  { const auto s = log.span("kept"); }
  EXPECT_EQ(log.records().size(), 1u);
}

}  // namespace
}  // namespace perfbench
