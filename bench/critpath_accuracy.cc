// Critical-path what-if accuracy pin: every projection the analyzer ranks
// must match a simulator re-run under the same perturbed parameters.
//
// The analyzer (src/obs/critpath) runs the simulators' own scheduling core
// (src/sim/schedule.h) with provenance recording on, so its projections equal
// what the simulator computes by construction; this bench pins the plumbing
// around that (scenario perturbation, discipline selection, the recorded
// walk) across both disciplines (batch-window admission and worker-lane
// replay with clairvoyant prefetch) and across cluster regimes (a link-bound
// 100 Mbps edge config and the paper's 500 Mbps evaluation config with a real
// offload plan in force): for each config it runs the stock what-if scenario
// set, re-runs the plain (unrecorded) core under each perturbed config
// (prefetch::run_epoch, the single-job configuration simulate_epoch_flows
// and replay_epoch run too), and pins the relative prediction error at 5%.
// Errors below 1e-9 are clamped to an exact zero so the committed artifact
// stays byte-stable for bench-compare.
//
// Self-verifies: every scenario within tolerance, at least 3 scenarios
// validated per config, baseline reconciliation to the observed epoch time,
// and byte-identical analyzer output across repeated runs. Emits
// BENCH_critpath.json for EXPERIMENTS.md tooling and check.sh
// --bench-regress.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/decision.h"
#include "core/profiler.h"
#include "obs/critpath/critpath.h"
#include "obs/critpath/whatif.h"
#include "prefetch/replay.h"
#include "sim/trainer.h"
#include "util/json.h"

using namespace sophon;

namespace {

constexpr std::size_t kSamples = 4000;
constexpr std::uint64_t kSeed = 42;
constexpr double kTolerance = 0.05;

struct BenchConfig {
  std::string name;
  prefetch::EpochParams params;
  bool offload_plan = false;  // run decide_offloading and apply its plan
};

/// Prediction errors this far below the pin are float rounding; publish them
/// as an exact zero so re-runs diff clean against the committed artifact.
double clamp_error(double error) { return error < 1e-9 ? 0.0 : error; }

}  // namespace

int main() {
  bench::print_header(
      "Critical-path what-if accuracy — projections vs simulator re-runs "
      "(OpenImages subset)",
      "(the analyzer runs the DES scheduling core, so single-knob projections "
      "validate against real re-runs instead of trusting a fitted model)");

  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(kSamples), kSeed);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto gpu = model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000);

  std::vector<BenchConfig> configs;
  {
    // Link-bound edge cluster, batch-window discipline: the regime where
    // buying bandwidth pays and the link dominates the blame vector.
    BenchConfig c;
    c.name = "batch_window_link_bound";
    c.params.cluster.compute_cores = 16;
    c.params.cluster.storage_cores = 4;
    c.params.cluster.bandwidth = Bandwidth::mbps(100.0);
    c.params.cluster.batch_size = 64;
    configs.push_back(c);
  }
  {
    // Same link-bound cluster under worker-lane replay with prefetch: adds
    // the depth/worker scenarios and the staging-admission dependencies.
    BenchConfig c;
    c.name = "worker_replay_link_bound";
    c.params.cluster.compute_cores = 16;
    c.params.cluster.storage_cores = 4;
    c.params.cluster.bandwidth = Bandwidth::mbps(100.0);
    c.params.cluster.batch_size = 64;
    c.params.discipline = prefetch::Discipline::kWorkerReplay;
    c.params.replay.workers = 4;
    c.params.replay.prefetch.depth = 8;
    configs.push_back(c);
  }
  {
    // The paper's evaluation cluster with a real offload plan in force, so
    // offloaded samples exercise the storage-CPU edges of the DAG.
    BenchConfig c;
    c.name = "worker_replay_paper_plan";
    c.params.cluster = bench::paper_config(8).cluster;
    c.params.discipline = prefetch::Discipline::kWorkerReplay;
    c.params.replay.workers = 4;
    c.params.replay.prefetch.depth = 16;
    c.offload_plan = true;
    configs.push_back(c);
  }

  Json rows = Json::array();
  double max_error = 0.0;
  std::size_t scenarios_total = 0;
  std::size_t scenarios_ok = 0;
  bool deterministic = true;
  bool reconciled = true;

  for (auto& config : configs) {
    auto& params = config.params;
    params.seed = kSeed;
    params.num_samples = catalog.size();
    params.gpu_batch_time = gpu.batch_time(params.cluster.batch_size);

    core::OffloadPlan plan(catalog.size());
    if (config.offload_plan) {
      const auto profiles = core::profile_stage2(catalog, pipe, cm);
      plan = core::decide_offloading(profiles, params.cluster,
                                     core::gpu_epoch_time(catalog.size(),
                                                          params.cluster.batch_size,
                                                          params.gpu_batch_time))
                 .plan;
    }
    const auto flow = sim::plan_flow(catalog, pipe, cm, plan.assignment());
    const obs::critpath::DemandFn demand = [&flow](std::size_t i) {
      const auto f = flow(i);
      return obs::critpath::SampleDemand{f.storage_cpu, f.compute_cpu, f.wire, f.delay};
    };

    const Seconds observed = prefetch::run_epoch(flow, params).epoch.epoch_time;
    const auto report = obs::critpath::project(
        demand, params, obs::critpath::default_scenarios(params), observed);
    const auto rerun = obs::critpath::project(
        demand, params, obs::critpath::default_scenarios(params), observed);
    deterministic = deterministic &&
                    report.to_json().dump() == rerun.to_json().dump();
    reconciled = reconciled && report.baseline.reconcile_error < 0.01;

    std::printf("%s: observed %.3f s, bottleneck %s, reconcile error %.1e, plan offloads %zu\n",
                config.name.c_str(), observed.value(),
                std::string(obs::critpath::resource_name(report.baseline.bottleneck())).c_str(),
                report.baseline.reconcile_error, plan.offloaded_count());

    Json baseline_row = Json::object();
    baseline_row.set("config", config.name);
    baseline_row.set("scenario", std::string("baseline"));
    baseline_row.set("projected_seconds", report.baseline.epoch_time.value());
    baseline_row.set("simulated_seconds", observed.value());
    baseline_row.set("rel_error", clamp_error(report.baseline.reconcile_error));
    baseline_row.set("speedup", 1.0);
    baseline_row.set("bottleneck",
                     std::string(obs::critpath::resource_name(report.baseline.bottleneck())));
    rows.push_back(baseline_row);

    for (const auto& projection : report.ranked) {
      const Seconds actual = prefetch::run_epoch(flow, projection.params).epoch.epoch_time;
      const double error =
          clamp_error(std::fabs(projection.projected_epoch_time.value() - actual.value()) /
                      std::max(actual.value(), 1e-12));
      max_error = std::max(max_error, error);
      ++scenarios_total;
      if (error <= kTolerance) ++scenarios_ok;
      std::printf("  %-22s projected %9.3f s | simulated %9.3f s | error %.2e | x%.2f -> %s\n",
                  projection.name.c_str(), projection.projected_epoch_time.value(),
                  actual.value(), error, projection.speedup,
                  std::string(obs::critpath::resource_name(projection.bottleneck)).c_str());
      Json row = Json::object();
      row.set("config", config.name);
      row.set("scenario", projection.name);
      row.set("projected_seconds", projection.projected_epoch_time.value());
      row.set("simulated_seconds", actual.value());
      row.set("rel_error", error);
      row.set("speedup", projection.speedup);
      row.set("bottleneck",
              std::string(obs::critpath::resource_name(projection.bottleneck)));
      rows.push_back(row);
    }
    std::printf("\n");
  }

  if (!bench::ArtifactEmitter("sophon.bench_critpath")
           .meta("samples", static_cast<std::int64_t>(kSamples))
           .meta("seed", static_cast<std::int64_t>(kSeed))
           .meta("tolerance", kTolerance)
           .meta("scenarios", static_cast<std::int64_t>(scenarios_total))
           .meta("validated", static_cast<std::int64_t>(scenarios_ok))
           .meta("max_rel_error", max_error)
           .write("BENCH_critpath.json", rows)) {
    return 1;
  }

  const bool enough = scenarios_total >= 3 * configs.size() &&
                      scenarios_ok == scenarios_total;
  if (enough && deterministic && reconciled && max_error <= kTolerance) {
    std::printf("verified: what-if projections match simulator re-runs — %zu of %zu "
                "scenarios within %.0f%% (max error %.1e), baselines reconcile, "
                "deterministic across runs\n",
                scenarios_ok, scenarios_total, 100.0 * kTolerance, max_error);
    return 0;
  }
  std::printf("FAILED: validated %zu/%zu, max error %.2e, deterministic=%d, reconciled=%d\n",
              scenarios_ok, scenarios_total, max_error, deterministic ? 1 : 0,
              reconciled ? 1 : 0);
  return 1;
}
