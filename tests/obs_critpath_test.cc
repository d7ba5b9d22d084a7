#include "obs/critpath/critpath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "net/fault.h"
#include "obs/critpath/whatif.h"
#include "prefetch/replay.h"
#include "sim/trainer.h"
#include "obs/trace.h"

namespace sophon::obs::critpath {
namespace {

constexpr std::size_t kSamples = 256;

// Heterogeneous demands: a mix of offloaded and local samples, wire sizes
// spanning deprioritization-small to large, occasional injected delay, and
// zero-compute samples — every branch of both schedulers gets exercised.
sim::SampleFlow flow_for(std::size_t i) {
  sim::SampleFlow f;
  f.wire = i % 7 == 3 ? Bytes(2 * 1024) : Bytes(static_cast<std::int64_t>((i % 7 + 1) * 64 * 1024));
  f.storage_cpu = i % 3 == 0 ? Seconds::millis(2.0 * static_cast<double>(i % 5 + 1)) : Seconds(0.0);
  f.compute_cpu = Seconds::millis(1.0 * static_cast<double>(i % 4));
  f.delay = i % 11 == 0 ? Seconds::millis(0.5) : Seconds(0.0);
  return f;
}

SampleDemand demand_for(std::size_t i) {
  const sim::SampleFlow f = flow_for(i);
  return SampleDemand{f.storage_cpu, f.compute_cpu, f.wire, f.delay};
}

sim::ClusterConfig test_cluster() {
  sim::ClusterConfig cluster;
  cluster.compute_cores = 4;  // < typical demand: real core queueing
  cluster.storage_cores = 2;
  cluster.storage_core_speed = 0.8;
  cluster.bandwidth = Bandwidth::mbps(800.0);
  cluster.link_latency = Seconds::millis(1.0);
  cluster.batch_size = 32;
  cluster.prefetch_batches = 2;
  return cluster;
}

EpochParams batch_params() {
  EpochParams p;
  p.cluster = test_cluster();
  p.gpu_batch_time = Seconds::millis(20.0);
  p.seed = 42;
  p.epoch_index = 1;
  p.num_samples = kSamples;
  p.discipline = Discipline::kBatchWindow;
  return p;
}

EpochParams worker_params() {
  EpochParams p = batch_params();
  p.discipline = Discipline::kWorkerReplay;
  p.replay.workers = 3;
  p.replay.prefetch.depth = 8;
  p.replay.prefetch.bytes_budget = Bytes::mib(1);
  p.replay.served_locally = [](std::uint64_t id) { return id % 13 == 0; };
  return p;
}

double simulate_under(const EpochParams& p) {
  if (p.discipline == Discipline::kWorkerReplay) {
    return prefetch::replay_epoch(p.num_samples, flow_for, p.cluster, p.gpu_batch_time, p.seed,
                                  p.epoch_index, p.replay)
        .epoch.epoch_time.value();
  }
  return sim::simulate_epoch_flows(p.num_samples, flow_for, p.cluster, p.gpu_batch_time, p.seed,
                                   p.epoch_index)
      .epoch_time.value();
}

void expect_path_tiles(const Analysis& analysis) {
  ASSERT_FALSE(analysis.path.empty());
  EXPECT_EQ(analysis.path.front().begin.value(), 0.0);
  EXPECT_EQ(analysis.path.back().end.value(), analysis.epoch_time.value());
  for (std::size_t i = 1; i < analysis.path.size(); ++i) {
    EXPECT_EQ(analysis.path[i].begin.value(), analysis.path[i - 1].end.value());
  }
  // The blame vector is the same tiling bucketed by resource.
  EXPECT_NEAR(analysis.blame.total().value(), analysis.epoch_time.value(),
              1e-9 * std::max(analysis.epoch_time.value(), 1.0));
}

TEST(CritPath, BatchWindowRetimingMatchesSimulatorExactly) {
  const EpochParams p = batch_params();
  const double simulated = simulate_under(p);
  const Analysis analysis = analyze_epoch(demand_for, p, Seconds(simulated));
  EXPECT_DOUBLE_EQ(analysis.epoch_time.value(), simulated);
  EXPECT_LT(analysis.reconcile_error, 1e-12);
  expect_path_tiles(analysis);
}

TEST(CritPath, WorkerReplayRetimingMatchesReplayExactly) {
  const EpochParams p = worker_params();
  const double simulated = simulate_under(p);
  const Analysis analysis = analyze_epoch(demand_for, p, Seconds(simulated));
  EXPECT_DOUBLE_EQ(analysis.epoch_time.value(), simulated);
  EXPECT_LT(analysis.reconcile_error, 1e-12);
  expect_path_tiles(analysis);
}

TEST(CritPath, DemandOnlyReplayMatchesToo) {
  EpochParams p = worker_params();
  p.replay.prefetch.depth = 0;  // pure demand fetching
  const double simulated = simulate_under(p);
  const Analysis analysis = analyze_epoch(demand_for, p, Seconds(simulated));
  EXPECT_DOUBLE_EQ(analysis.epoch_time.value(), simulated);
}

TEST(CritPath, FaultyLinkRetimesIdentically) {
  // Link faults draw per transfer index; the retimer schedules transfers in
  // the simulator's order, so a degraded epoch re-times bit-identically.
  net::FaultProfile profile;
  profile.latency_spike_prob = 0.3;
  profile.latency_spike = Seconds::millis(25.0);
  profile.bandwidth_dip_prob = 0.2;
  profile.bandwidth_dip_factor = 3.0;
  profile.seed = 7;
  const net::FaultInjector faults(profile);

  for (const bool worker : {false, true}) {
    EpochParams p = worker ? worker_params() : batch_params();
    p.cluster.link_faults = &faults;
    const double simulated = simulate_under(p);
    const Analysis analysis = analyze_epoch(demand_for, p, Seconds(simulated));
    EXPECT_DOUBLE_EQ(analysis.epoch_time.value(), simulated)
        << (worker ? "worker replay" : "batch window");
  }
}

TEST(CritPath, InjectedBottleneckIsBlamed) {
  // Starve the link: nearly all critical-path time must land on it.
  EpochParams narrow = batch_params();
  narrow.cluster.bandwidth = Bandwidth::mbps(20.0);
  const Analysis link_bound = analyze_epoch(demand_for, narrow);
  EXPECT_EQ(link_bound.bottleneck(), Resource::kLink);
  EXPECT_GT(link_bound.blame.link.value(), 0.5 * link_bound.epoch_time.value());

  // A glacial GPU swamps everything else.
  EpochParams slow_gpu = batch_params();
  slow_gpu.gpu_batch_time = Seconds(2.0);
  const Analysis gpu_bound = analyze_epoch(demand_for, slow_gpu);
  EXPECT_EQ(gpu_bound.bottleneck(), Resource::kGpu);
  EXPECT_GT(gpu_bound.blame.gpu.value(), 0.9 * gpu_bound.epoch_time.value());
}

TEST(CritPath, AnalysisIsDeterministic) {
  const EpochParams p = worker_params();
  const std::string a = analyze_epoch(demand_for, p).to_json().dump();
  const std::string b = analyze_epoch(demand_for, p).to_json().dump();
  EXPECT_EQ(a, b);
}

TEST(CritPath, AnalyzerRecordsNoSpansWhileTracing) {
  // The span ring holds real-thread spans only: neither the analyzer nor a
  // plain run writes to it, even with the global tracer on. Every simulated
  // span is built from a record (obs/replay_trace.h), never emitted by the
  // core.
  Tracer& tracer = global_tracer();
  (void)tracer.drain();
  tracer.set_enabled(true);
  for (const EpochParams& p : {batch_params(), worker_params()}) {
    (void)analyze_epoch(demand_for, p);
    (void)project(demand_for, p, default_scenarios(p));
    (void)run_epoch(demand_for, p);
  }
  const EpochParams p = worker_params();
  (void)sim::simulate_epoch_flows(p.num_samples, flow_for, p.cluster, p.gpu_batch_time, p.seed,
                                  p.epoch_index);
  (void)prefetch::replay_epoch(p.num_samples, flow_for, p.cluster, p.gpu_batch_time, p.seed,
                               p.epoch_index, p.replay);
  tracer.set_enabled(false);
  EXPECT_TRUE(tracer.drain().empty());
}

TEST(WhatIf, DefaultScenariosCoverRequiredKnobs) {
  const auto has = [](const std::vector<Scenario>& scenarios, const std::string& name) {
    for (const auto& s : scenarios) {
      if (s.name == name) return true;
    }
    return false;
  };
  const auto batch = default_scenarios(batch_params());
  EXPECT_TRUE(has(batch, "link_bandwidth_x2"));
  EXPECT_TRUE(has(batch, "storage_cores_plus2"));
  EXPECT_TRUE(has(batch, "prefetch_window_x2"));
  EXPECT_TRUE(has(batch, "gpu_2x_faster"));
  const auto worker = default_scenarios(worker_params());
  EXPECT_TRUE(has(worker, "prefetch_depth_x2"));
  EXPECT_TRUE(has(worker, "workers_plus2"));
}

TEST(WhatIf, ProjectionsMatchSimulatorRerunWithinTolerance) {
  // The acceptance bar: every projected epoch time must agree with an
  // actual simulator re-run under the perturbed config within 5% — and
  // because the retimer is exact, the agreement is really to float
  // rounding. Covers 2x bandwidth, +2 storage cores, and deeper prefetch
  // (window for the batch discipline, depth for worker replay).
  for (const bool worker : {false, true}) {
    const EpochParams base = worker ? worker_params() : batch_params();
    const auto scenarios = default_scenarios(base);
    ASSERT_GE(scenarios.size(), 3u);
    const WhatIfReport report = project(demand_for, base, scenarios, Seconds(simulate_under(base)));
    EXPECT_LT(report.baseline.reconcile_error, 1e-12);
    ASSERT_EQ(report.ranked.size(), scenarios.size());
    for (const Projection& projection : report.ranked) {
      const double resimulated = simulate_under(projection.params);
      ASSERT_GT(resimulated, 0.0);
      const double error =
          std::abs(projection.projected_epoch_time.value() - resimulated) / resimulated;
      EXPECT_LT(error, 0.05) << projection.name << " predicted "
                             << projection.projected_epoch_time.value() << " vs simulated "
                             << resimulated;
      EXPECT_LT(error, 1e-12) << projection.name << " should be exact, not merely within 5%";
      EXPECT_GE(projection.speedup, 1.0 - 1e-9) << projection.name;
    }
  }
}

TEST(WhatIf, RankingIsDeterministicAndSorted) {
  const EpochParams base = worker_params();
  const auto scenarios = default_scenarios(base);
  const WhatIfReport a = project(demand_for, base, scenarios);
  const WhatIfReport b = project(demand_for, base, scenarios);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  for (std::size_t i = 1; i < a.ranked.size(); ++i) {
    EXPECT_GE(a.ranked[i - 1].speedup, a.ranked[i].speedup);
  }
  EXPECT_FALSE(a.render().empty());
}

TEST(CritPath, RenderAndJsonCarryTheStory) {
  const EpochParams p = batch_params();
  const Analysis analysis = analyze_epoch(demand_for, p, Seconds(simulate_under(p)));
  const std::string text = analysis.render();
  EXPECT_NE(text.find("bottleneck"), std::string::npos);
  EXPECT_NE(text.find("reconciles"), std::string::npos);
  const Json doc = analysis.to_json();
  EXPECT_EQ(doc.at("kind").as_string(), "sophon.critpath");
  EXPECT_TRUE(doc.has("blame"));
  EXPECT_GT(doc.at("path").size(), 0u);
}

}  // namespace
}  // namespace sophon::obs::critpath
