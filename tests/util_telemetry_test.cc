#include "util/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "prefetch/metrics.h"

namespace sophon {
namespace {

TEST(Telemetry, CounterIncrements) {
  MetricsRegistry registry;
  auto& c = registry.counter("sophon_fetch");
  c.increment();
  c.increment(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name → same counter.
  EXPECT_EQ(registry.counter("sophon_fetch").value(), 5u);
}

TEST(Telemetry, GaugeSets) {
  MetricsRegistry registry;
  registry.gauge("sophon_queue_depth").set(7.5);
  registry.gauge("sophon_queue_depth").set(2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("sophon_queue_depth").value(), 2.0);
}

TEST(Telemetry, DurationAccumulates) {
  MetricsRegistry registry;
  auto& d = registry.duration("sophon_preprocess");
  d.observe(Seconds(0.5));
  d.observe(Seconds(1.5));
  const auto stats = d.snapshot();
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.sum(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.5);
  EXPECT_DOUBLE_EQ(stats.max(), 1.5);
}

TEST(Telemetry, ScopedTimerObservesPositiveSpan) {
  MetricsRegistry registry;
  auto& d = registry.duration("sophon_span");
  {
    ScopedTimer timer(d);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto stats = d.snapshot();
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_GT(stats.sum(), 0.0);
}

TEST(Telemetry, ExpositionFormat) {
  MetricsRegistry registry;
  registry.counter("sophon_b").increment(3);
  registry.counter("sophon_a").increment();
  registry.gauge("sophon_g").set(1.5);
  registry.duration("sophon_d").observe(Seconds(0.25));
  const auto text = registry.expose();
  EXPECT_NE(text.find("sophon_a_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("sophon_b_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("sophon_g 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("sophon_d_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("sophon_d_seconds_sum 0.25\n"), std::string::npos);
  // Sorted: a before b.
  EXPECT_LT(text.find("sophon_a_total"), text.find("sophon_b_total"));
}

TEST(Telemetry, ExpositionGoldenOutput) {
  // Locks the full Prometheus text format byte-for-byte: # HELP / # TYPE per
  // family, counters with _total, summaries with _count/_sum (+ min/max
  // companion gauges), histograms with cumulative buckets ending at +Inf.
  MetricsRegistry registry;
  registry.counter("sophon_fetch").increment(3);
  registry.set_help("sophon_fetch", "Samples fetched from storage.");
  registry.gauge("sophon_depth").set(2.5);
  registry.duration("sophon_wait").observe(Seconds(0.25));
  registry.duration("sophon_wait").observe(Seconds(0.75));
  auto& h = registry.histogram("sophon_stall");
  h.observe(Seconds(0.0002));  // -> le="0.0003"
  h.observe(Seconds(0.05));    // -> le="0.1"
  h.observe(Seconds(99.0));    // -> +Inf only
  const std::string expected =
      "# HELP sophon_fetch_total Samples fetched from storage.\n"
      "# TYPE sophon_fetch_total counter\n"
      "sophon_fetch_total 3\n"
      "# HELP sophon_depth Last-written value.\n"
      "# TYPE sophon_depth gauge\n"
      "sophon_depth 2.5\n"
      "# HELP sophon_wait_seconds Accumulated span durations in seconds.\n"
      "# TYPE sophon_wait_seconds summary\n"
      "sophon_wait_seconds_count 2\n"
      "sophon_wait_seconds_sum 1\n"
      "# HELP sophon_wait_seconds_min Shortest observed span in seconds.\n"
      "# TYPE sophon_wait_seconds_min gauge\n"
      "sophon_wait_seconds_min 0.25\n"
      "# HELP sophon_wait_seconds_max Longest observed span in seconds.\n"
      "# TYPE sophon_wait_seconds_max gauge\n"
      "sophon_wait_seconds_max 0.75\n"
      "# HELP sophon_stall Span duration distribution in seconds.\n"
      "# TYPE sophon_stall histogram\n"
      "sophon_stall_bucket{le=\"0.0001\"} 0\n"
      "sophon_stall_bucket{le=\"0.0003\"} 1\n"
      "sophon_stall_bucket{le=\"0.001\"} 1\n"
      "sophon_stall_bucket{le=\"0.003\"} 1\n"
      "sophon_stall_bucket{le=\"0.01\"} 1\n"
      "sophon_stall_bucket{le=\"0.03\"} 1\n"
      "sophon_stall_bucket{le=\"0.1\"} 2\n"
      "sophon_stall_bucket{le=\"0.3\"} 2\n"
      "sophon_stall_bucket{le=\"1\"} 2\n"
      "sophon_stall_bucket{le=\"3\"} 2\n"
      "sophon_stall_bucket{le=\"10\"} 2\n"
      "sophon_stall_bucket{le=\"+Inf\"} 3\n"
      "sophon_stall_count 3\n"
      "sophon_stall_sum 99.0502\n";
  EXPECT_EQ(registry.expose(), expected);
}

TEST(Telemetry, HelpAndTypePrecedeEverySample) {
  MetricsRegistry registry;
  registry.counter("sophon_c").increment();
  registry.gauge("sophon_g").set(1);
  registry.duration("sophon_d").observe(Seconds(0.1));
  registry.histogram("sophon_h").observe(Seconds(0.1));
  const std::string text = registry.expose();
  std::istringstream in(text);
  std::string line;
  std::string last_comment_family;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      // "# HELP <family> ..." / "# TYPE <family> <kind>"
      std::istringstream fields(line);
      std::string hash, kind, family;
      fields >> hash >> kind >> family;
      EXPECT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      last_comment_family = family;
      continue;
    }
    // Every sample line belongs to the family most recently announced.
    EXPECT_EQ(line.rfind(last_comment_family, 0), 0u) << line;
  }
}

TEST(Telemetry, SnapshotCapturesAllKinds) {
  MetricsRegistry registry;
  registry.counter("sophon_c").increment(7);
  registry.gauge("sophon_g").set(3.5);
  registry.duration("sophon_d").observe(Seconds(0.5));
  registry.histogram("sophon_h").observe(Seconds(0.2));
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("sophon_c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sophon_g"), 3.5);
  EXPECT_EQ(snap.durations.at("sophon_d").count, 1u);
  EXPECT_DOUBLE_EQ(snap.durations.at("sophon_d").sum, 0.5);
  EXPECT_EQ(snap.histograms.at("sophon_h").count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("sophon_h").sum, 0.2);
}

TEST(Telemetry, SnapshotDeltaIsolatesAnInterval) {
  MetricsRegistry registry;
  registry.counter("sophon_c").increment(10);
  registry.duration("sophon_d").observe(Seconds(1.0));
  registry.gauge("sophon_g").set(1.0);
  const MetricsSnapshot before = registry.snapshot();

  registry.counter("sophon_c").increment(5);
  registry.counter("sophon_new").increment(2);  // born inside the interval
  registry.duration("sophon_d").observe(Seconds(0.25));
  registry.gauge("sophon_g").set(9.0);
  registry.histogram("sophon_h").observe(Seconds(0.1));
  const MetricsSnapshot after = registry.snapshot();

  const MetricsSnapshot delta = snapshot_delta(after, before);
  EXPECT_EQ(delta.counters.at("sophon_c"), 5u);
  EXPECT_EQ(delta.counters.at("sophon_new"), 2u);
  EXPECT_EQ(delta.durations.at("sophon_d").count, 1u);
  EXPECT_DOUBLE_EQ(delta.durations.at("sophon_d").sum, 0.25);
  EXPECT_EQ(delta.histograms.at("sophon_h").count, 1u);
  // Gauges are instantaneous; the delta carries the later reading.
  EXPECT_DOUBLE_EQ(delta.gauges.at("sophon_g"), 9.0);
}

TEST(Telemetry, CountersAreThreadSafe) {
  MetricsRegistry registry;
  auto& c = registry.counter("sophon_mt");
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 80000u);
}

TEST(Telemetry, ReferencesStayValidAcrossRegistryGrowth) {
  MetricsRegistry registry;
  auto& first = registry.counter("sophon_first");
  for (int i = 0; i < 100; ++i) {
    registry.counter("sophon_other_" + std::to_string(i)).increment();
  }
  first.increment();
  EXPECT_EQ(registry.counter("sophon_first").value(), 1u);
}

TEST(Telemetry, GaugeSetMaxIsMonotonic) {
  Gauge gauge;
  gauge.set_max(3.0);
  EXPECT_EQ(gauge.value(), 3.0);
  gauge.set_max(1.0);  // lower values do not win
  EXPECT_EQ(gauge.value(), 3.0);
  gauge.set_max(7.5);
  EXPECT_EQ(gauge.value(), 7.5);
}

TEST(Telemetry, GaugeSetMaxIsThreadSafe) {
  Gauge gauge;
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 10000; ++i) {
        gauge.set_max(static_cast<double>(t * 10000 + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), 79999.0);
}

TEST(Telemetry, PrefetchMetricsPreRegisteredAtZero) {
  // The prefetch subsystem's convention: every metric it will ever touch is
  // registered up front, so a scrape taken before any activity already
  // lists the full set — at zero.
  MetricsRegistry registry;
  prefetch::register_prefetch_metrics(registry);
  const std::string text = registry.expose();
  for (const char* counter :
       {"sophon_prefetch_issued", "sophon_prefetch_hits", "sophon_prefetch_late",
        "sophon_prefetch_failed", "sophon_prefetch_cancelled",
        "sophon_prefetch_skipped_deprioritized", "sophon_prefetch_skipped_consumed"}) {
    EXPECT_NE(text.find(std::string(counter) + "_total 0\n"), std::string::npos) << counter;
  }
  EXPECT_NE(text.find("sophon_prefetch_buffer_depth 0\n"), std::string::npos);
  EXPECT_NE(text.find("sophon_prefetch_buffer_bytes 0\n"), std::string::npos);
  EXPECT_NE(text.find("sophon_prefetch_lead_seconds_count 0\n"), std::string::npos);
  EXPECT_NE(text.find("sophon_prefetch_lead_seconds_sum 0\n"), std::string::npos);
}

TEST(Telemetry, SnapshotDeltaOfEmptyRegistryIsEmpty) {
  MetricsRegistry registry;
  const MetricsSnapshot a = registry.snapshot();
  const MetricsSnapshot b = registry.snapshot();
  const MetricsSnapshot delta = snapshot_delta(b, a);
  EXPECT_TRUE(delta.counters.empty());
  EXPECT_TRUE(delta.gauges.empty());
  EXPECT_TRUE(delta.durations.empty());
  EXPECT_TRUE(delta.histograms.empty());
}

// snapshot_delta's contract: snapshots taken while writers hammer the
// registry chop the activity into intervals whose deltas add back up to the
// final totals — nothing double-counted, nothing lost between snapshots.
TEST(Telemetry, ConcurrentSnapshotDeltasSumToTheTotal) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry] {
      for (int i = 0; i < 20000; ++i) {
        registry.counter("sophon_mt_events").increment();
        registry.duration("sophon_mt_cpu").observe(Seconds(0.001));
        registry.histogram("sophon_mt_lat").observe(Seconds(0.01));
      }
    });
  }

  // A snapshotting thread carves the concurrent activity into intervals.
  std::uint64_t counter_sum = 0;
  std::uint64_t duration_count_sum = 0;
  std::uint64_t histogram_count_sum = 0;
  std::thread sampler([&] {
    MetricsSnapshot last;
    while (!stop.load()) {
      const MetricsSnapshot now = registry.snapshot();
      const MetricsSnapshot delta = snapshot_delta(now, last);
      if (delta.counters.count("sophon_mt_events")) {
        counter_sum += delta.counters.at("sophon_mt_events");
      }
      if (delta.durations.count("sophon_mt_cpu")) {
        duration_count_sum += delta.durations.at("sophon_mt_cpu").count;
      }
      if (delta.histograms.count("sophon_mt_lat")) {
        histogram_count_sum += delta.histograms.at("sophon_mt_lat").count;
      }
      last = now;
    }
    // One final interval after the writers quiesced catches the remainder.
    const MetricsSnapshot now = registry.snapshot();
    const MetricsSnapshot delta = snapshot_delta(now, last);
    counter_sum += delta.counters.at("sophon_mt_events");
    duration_count_sum += delta.durations.at("sophon_mt_cpu").count;
    histogram_count_sum += delta.histograms.at("sophon_mt_lat").count;
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  sampler.join();

  EXPECT_EQ(counter_sum, 80000u);
  EXPECT_EQ(duration_count_sum, 80000u);
  EXPECT_EQ(histogram_count_sum, 80000u);
}

TEST(Telemetry, HistogramInfBucketSurvivesConcurrentScrapes) {
  MetricsRegistry registry;
  auto& hist = registry.histogram("sophon_mt_lat");
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&hist] {
      for (int i = 0; i < 5000; ++i) {
        hist.observe(Seconds(0.001));
        hist.observe(Seconds(100.0));  // past the last bound -> +Inf bucket
      }
    });
  }
  std::thread scraper([&registry] {
    for (int i = 0; i < 50; ++i) (void)registry.expose();
  });
  for (auto& t : writers) t.join();
  scraper.join();

  // The +Inf bucket is cumulative: after quiescence it equals _count, and
  // both equal every observation made.
  const std::string text = registry.expose();
  EXPECT_NE(text.find("sophon_mt_lat_bucket{le=\"+Inf\"} 40000\n"), std::string::npos) << text;
  EXPECT_NE(text.find("sophon_mt_lat_count 40000\n"), std::string::npos);
  EXPECT_EQ(registry.snapshot().histograms.at("sophon_mt_lat").count, 40000u);
}

}  // namespace
}  // namespace sophon
