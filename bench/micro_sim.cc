// M2 — simulator & planner micro-benchmarks: how fast the discrete-event
// trainer, the stage-2 profiler, the decision engine, the prefetch replay and
// the critical-path analyzer run at evaluation scale (they must stay cheap
// enough to iterate on).
#include <benchmark/benchmark.h>

#include "core/decision.h"
#include "core/profiler.h"
#include "model/gpu_model.h"
#include "obs/critpath/critpath.h"
#include "prefetch/replay.h"
#include "sim/trainer.h"

namespace sophon {
namespace {

const dataset::Catalog& catalog() {
  static const auto c = dataset::Catalog::generate(dataset::openimages_profile(40000), 42);
  return c;
}

const pipeline::Pipeline& pipe() {
  static const auto p = pipeline::Pipeline::standard();
  return p;
}

void BM_SimulateEpochNoOff(benchmark::State& state) {
  const pipeline::CostModel cm;
  sim::ClusterConfig cluster;
  for (auto _ : state) {
    auto stats = sim::simulate_epoch(catalog(), pipe(), cm, cluster, Seconds::millis(85.0), {},
                                     42, 0);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(catalog().size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateEpochNoOff);

void BM_SimulateEpochFullOffload(benchmark::State& state) {
  const pipeline::CostModel cm;
  sim::ClusterConfig cluster;
  const std::vector<std::uint8_t> assignment(catalog().size(), 2);
  for (auto _ : state) {
    auto stats = sim::simulate_epoch(catalog(), pipe(), cm, cluster, Seconds::millis(85.0),
                                     assignment, 42, 0);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_SimulateEpochFullOffload);

void BM_Stage2Profiler(benchmark::State& state) {
  const pipeline::CostModel cm;
  for (auto _ : state) {
    auto profiles = core::profile_stage2(catalog(), pipe(), cm);
    benchmark::DoNotOptimize(profiles);
  }
}
BENCHMARK(BM_Stage2Profiler);

void BM_DecisionEngine(benchmark::State& state) {
  const pipeline::CostModel cm;
  const auto profiles = core::profile_stage2(catalog(), pipe(), cm);
  sim::ClusterConfig cluster;
  cluster.storage_cores = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = core::decide_offloading(profiles, cluster, Seconds(14.0));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DecisionEngine)->Arg(1)->Arg(48);

// A planning query's epoch, as perfbench's plan_sim asks it: the
// ImageNet-like 90k catalog under SOPHON's plan at the paper's cluster
// (48 compute cores, 8 storage cores, 500 Mbps, AlexNet on an RTX 6000).
struct PlannedEpoch {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::imagenet_profile(90000), 42);
  pipeline::CostModel cm;
  prefetch::EpochParams params;
  core::OffloadPlan plan;
  sim::FlowFn flow;

  PlannedEpoch() {
    params.cluster.compute_cores = 48;
    params.cluster.storage_cores = 8;
    params.cluster.bandwidth = Bandwidth::mbps(500.0);
    params.gpu_batch_time =
        model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000)
            .batch_time(params.cluster.batch_size);
    params.num_samples = catalog.size();
    params.replay.workers = 8;
    params.replay.prefetch.depth = 32;
    plan = core::decide_offloading(core::profile_stage2(catalog, pipe(), cm), params.cluster,
                                   core::gpu_epoch_time(catalog.size(),
                                                        params.cluster.batch_size,
                                                        params.gpu_batch_time))
               .plan;
    flow = sim::plan_flow(catalog, pipe(), cm, plan.assignment());
  }
};

const PlannedEpoch& planned() {
  static const PlannedEpoch p;
  return p;
}

void samples_rate(benchmark::State& state) {
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(planned().catalog.size()),
      benchmark::Counter::kIsRate);
}

void BM_ReplayEpoch(benchmark::State& state) {
  const PlannedEpoch& p = planned();
  for (auto _ : state) {
    auto result = prefetch::replay_epoch(p.catalog.size(), p.flow, p.params.cluster,
                                         p.params.gpu_batch_time, p.params.seed, 0,
                                         p.params.replay);
    benchmark::DoNotOptimize(result);
  }
  samples_rate(state);
}
BENCHMARK(BM_ReplayEpoch)->Unit(benchmark::kMillisecond);

// Arg 0: the worker-lane discipline; arg 1: the batch window.
void BM_AnalyzeEpoch(benchmark::State& state) {
  auto params = planned().params;
  params.discipline = state.range(0) == 0 ? prefetch::Discipline::kWorkerReplay
                                          : prefetch::Discipline::kBatchWindow;
  for (auto _ : state) {
    auto analysis = obs::critpath::analyze_epoch(planned().flow, params);
    benchmark::DoNotOptimize(analysis);
  }
  samples_rate(state);
}
BENCHMARK(BM_AnalyzeEpoch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EpochShuffle(benchmark::State& state) {
  for (auto _ : state) {
    dataset::EpochOrder order(catalog().size(), 42, 0);
    benchmark::DoNotOptimize(order);
  }
}
BENCHMARK(BM_EpochShuffle);

}  // namespace
}  // namespace sophon

BENCHMARK_MAIN();
