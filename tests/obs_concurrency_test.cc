// Concurrency stress for the observability substrates: the span rings'
// single-writer publish protocol and the metrics registry's create-on-use
// maps. Run under tools/check.sh --tsan, where a missing release/acquire
// pair or a locked-map slip shows up as a reported race.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/critpath/critpath.h"
#include "obs/critpath/whatif.h"
#include "obs/trace.h"
#include "prefetch/replay.h"
#include "sim/cluster.h"
#include "util/telemetry.h"

namespace sophon {
namespace {

TEST(ObsConcurrency, ManyThreadsRecordIntoPrivateRings) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSpansPerThread = 2000;
  obs::Tracer tracer(kSpansPerThread + 16);
  tracer.set_enabled(true);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      tracer.set_thread_label("worker-" + std::to_string(t));
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        obs::Span span(tracer, obs::SpanCategory::kPreprocess, "op");
        span.args().sample = static_cast<std::int64_t>(i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto spans = tracer.drain();
  EXPECT_EQ(spans.size(), kThreads * kSpansPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.labels().size(), kThreads);
}

TEST(ObsConcurrency, RecordingRacesEnableToggleSafely) {
  // Flipping the master switch while writers are mid-loop must never tear a
  // span or trip TSan; spans recorded around the flip are simply best-effort.
  obs::Tracer tracer(1 << 14);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        obs::Span span(tracer, obs::SpanCategory::kFetch, "fetch");
        span.args().sample = static_cast<std::int64_t>(i++);
      }
    });
  }
  std::thread toggler([&] {
    for (int i = 0; i < 200; ++i) {
      tracer.set_enabled(i % 2 == 0);
      std::this_thread::yield();
    }
    tracer.set_enabled(false);
    stop.store(true, std::memory_order_relaxed);
  });
  toggler.join();
  for (auto& thread : writers) thread.join();
  const auto spans = tracer.drain();  // all threads quiesced: safe to drain
  for (const auto& span : spans) {
    EXPECT_GE(span.end_ns, span.begin_ns);
  }
}

TEST(ObsConcurrency, TelemetryRegistryCreateExposeSnapshotRace) {
  MetricsRegistry registry;
  // The scraper can run before any writer does, and an empty registry
  // exposes nothing: start from one registered family.
  (void)registry.counter("sophon_c_0");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, t] {
      for (int i = 0; i < 2000; ++i) {
        registry.counter("sophon_c_" + std::to_string(i % 16)).increment();
        registry.gauge("sophon_g_" + std::to_string(t)).set_max(static_cast<double>(i));
        registry.duration("sophon_d").observe(Seconds(1e-6));
        registry.histogram("sophon_h").observe(Seconds(1e-3));
      }
    });
  }
  std::thread scraper([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = registry.expose();
      EXPECT_FALSE(text.empty());
      const MetricsSnapshot snap = registry.snapshot();
      (void)snap;
    }
  });
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  std::uint64_t total = 0;
  for (int i = 0; i < 16; ++i) {
    total += registry.counter("sophon_c_" + std::to_string(i)).value();
  }
  EXPECT_EQ(total, 4u * 2000u);
  EXPECT_EQ(registry.duration("sophon_d").snapshot().count(), 4u * 2000u);
  EXPECT_EQ(registry.histogram("sophon_h").count(), 4u * 2000u);
}

prefetch::EpochParams concurrency_params() {
  prefetch::EpochParams params;
  params.cluster.compute_cores = 4;
  params.cluster.storage_cores = 2;
  params.cluster.bandwidth = Bandwidth::mbps(400.0);
  params.cluster.batch_size = 32;
  params.gpu_batch_time = Seconds(0.02);
  params.seed = 42;
  params.epoch_index = 1;
  params.num_samples = 384;
  params.discipline = prefetch::Discipline::kWorkerReplay;
  params.replay.workers = 3;
  params.replay.prefetch.depth = 8;
  return params;
}

obs::critpath::SampleDemand concurrency_demand(std::size_t i) {
  obs::critpath::SampleDemand d;
  d.storage_cpu = i % 3 == 0 ? Seconds(0.002) : Seconds(0.0);
  d.compute_cpu = Seconds(0.001 * static_cast<double>(i % 4));
  d.wire = Bytes(static_cast<std::int64_t>((i % 7 + 1)) * 65536);
  d.delay = i % 11 == 0 ? Seconds(0.0005) : Seconds(0.0);
  return d;
}

TEST(ObsConcurrency, AnalyzerIsDeterministicAcrossConcurrentRuns) {
  // The analyzer holds no global state: N threads analyzing the same epoch
  // must produce byte-identical blame vectors and scenario rankings.
  const auto params = concurrency_params();
  const auto reference =
      obs::critpath::project(concurrency_demand, params,
                             obs::critpath::default_scenarios(params))
          .to_json()
          .dump();
  constexpr std::size_t kThreads = 6;
  std::vector<std::string> dumps(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&params, &dumps, t] {
      dumps[t] = obs::critpath::project(concurrency_demand, params,
                                        obs::critpath::default_scenarios(params))
                     .to_json()
                     .dump();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& dump : dumps) {
    EXPECT_EQ(dump, reference);
  }
}

TEST(ObsConcurrency, AnalyzerRunsWhileTracerWritersAreLive) {
  // An operator may re-time the last epoch while the next one is already
  // recording spans: the analyzer touches no tracer state, so it must fold
  // cleanly against live writers (TSan enforces the claim).
  obs::Tracer tracer(1 << 12);
  tracer.set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&tracer, &stop] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        obs::Span span(tracer, obs::SpanCategory::kPreprocess, "op");
        span.args().sample = static_cast<std::int64_t>(i++);
      }
    });
  }
  const auto params = concurrency_params();
  const auto a = obs::critpath::analyze_epoch(concurrency_demand, params);
  const auto b = obs::critpath::analyze_epoch(concurrency_demand, params);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_GT(a.epoch_time.value(), 0.0);
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : writers) thread.join();
  tracer.set_enabled(false);
  const auto spans = tracer.drain();
  for (const auto& span : spans) {
    EXPECT_GE(span.end_ns, span.begin_ns);
  }
}

}  // namespace
}  // namespace sophon
