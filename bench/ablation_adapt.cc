// Ablation A15 — online adaptive re-planning under a mid-run bandwidth drop.
//
// The greedy plan is calibrated against a healthy 8 Gbps link, where the
// network is not predominant and SOPHON offloads nothing. At epoch 3 the
// link degrades 4x (8 Gbps -> 2 Gbps) and stays degraded. The static plan
// keeps shipping raw bytes into the slow link; the adaptive replanner
// (src/core/adapt) sees the t_net drift at the next epoch boundary, re-fits
// the bandwidth coefficient from the measured transfer time, re-runs the
// greedy with it, and swaps the new plan in at the boundary — recovering
// most of the regression. An oracle series (planned against the degraded
// link from epoch 0) bounds what any replanner could achieve.
//
// Self-verifies the acceptance property: the adaptive plan recovers at least
// half of the epoch-time regression the drop induced on the static plan,
// and the whole run is deterministic (two adaptive runs produce identical
// rows). Emits BENCH_adapt.json with every row for EXPERIMENTS.md tooling.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/adapt/loop.h"
#include "core/serialize.h"
#include "util/json.h"

using namespace sophon;

namespace {

constexpr std::size_t kSamples = 8000;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kEpochs = 10;
constexpr std::size_t kDropEpoch = 3;
constexpr double kPlannedMbps = 8000.0;
constexpr double kDropFactor = 4.0;

core::adapt::RunResult run_series(const dataset::Catalog& catalog,
                                  const pipeline::Pipeline& pipe,
                                  const pipeline::CostModel& cm,
                                  const sim::ClusterConfig& planned, Seconds batch_time,
                                  bool adapt) {
  core::adapt::RunOptions options;
  options.epochs = kEpochs;
  options.adapt = adapt;
  options.bandwidth_at = [](std::size_t epoch) {
    const double mbps = epoch >= kDropEpoch ? kPlannedMbps / kDropFactor : kPlannedMbps;
    return Bandwidth::mbps(mbps);
  };
  return core::adapt::run_adaptive(catalog, pipe, cm,
                                   {.cluster = planned,
                                    .gpu_batch_time = batch_time,
                                    .seed = kSeed,
                                    .num_samples = catalog.size()},
                                   options);
}

double mean_epoch_time(const std::vector<core::adapt::EpochRow>& rows, std::size_t from,
                       std::size_t to) {
  double sum = 0.0;
  for (std::size_t i = from; i < to; ++i) sum += rows[i].epoch_time.value();
  return sum / static_cast<double>(to - from);
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation A15 — adaptive re-planning vs static plan, 4x mid-run bandwidth drop "
      "(OpenImages subset)",
      "(DS-Analyzer: stall attribution must feed back into configuration; SOPHON's plan "
      "drifts when the link departs from its calibration)");

  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(kSamples), kSeed);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  auto planned = bench::paper_config(48).cluster;
  planned.bandwidth = Bandwidth::mbps(kPlannedMbps);
  const auto gpu = model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000);
  const Seconds batch_time = gpu.batch_time(planned.batch_size);

  const auto run_static = run_series(catalog, pipe, cm, planned, batch_time, false);
  const auto run_adapt = run_series(catalog, pipe, cm, planned, batch_time, true);
  const auto run_adapt_again = run_series(catalog, pipe, cm, planned, batch_time, true);

  // Oracle: a plan calibrated against the degraded link from epoch 0 — the
  // floor any boundary-granularity replanner can hope to track.
  auto degraded = planned;
  degraded.bandwidth = Bandwidth::mbps(kPlannedMbps / kDropFactor);
  const auto run_oracle = run_series(catalog, pipe, cm, degraded, batch_time, false);

  TextTable table({"epoch", "link", "static", "adaptive", "oracle", "adaptive decision"});
  Json rows = Json::array();
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const auto& a = run_adapt.rows[e];
    table.add_row({strf("%zu", e), strf("%.0f Mbps", a.actual_mbps),
                   strf("%.1f s", run_static.rows[e].epoch_time.value()),
                   strf("%.1f s (gen %llu, %zu off)", a.epoch_time.value(),
                        static_cast<unsigned long long>(a.plan_generation), a.offloaded),
                   strf("%.1f s", run_oracle.rows[e].epoch_time.value()),
                   std::string(core::adapt::replan_outcome_name(a.decision.outcome))});
    Json row = Json::object();
    row.set("epoch", static_cast<std::int64_t>(e));
    row.set("mbps", a.actual_mbps);
    row.set("static_seconds", run_static.rows[e].epoch_time.value());
    row.set("adaptive_seconds", a.epoch_time.value());
    row.set("oracle_seconds", run_oracle.rows[e].epoch_time.value());
    row.set("adaptive_generation", static_cast<std::int64_t>(a.plan_generation));
    row.set("adaptive_offloaded", static_cast<std::int64_t>(a.offloaded));
    row.set("adaptive_traffic_bytes", static_cast<std::int64_t>(a.traffic.count()));
    row.set("decision", std::string(core::adapt::replan_outcome_name(a.decision.outcome)));
    row.set("drift", a.decision.drift.max_drift);
    rows.push_back(row);
  }
  std::printf("%s\n", table.render().c_str());

  // Recovery: how much of the drop-induced regression the replanner won
  // back, measured over the steady state (epochs after the swapped plan is
  // in force) against the static plan's degraded steady state.
  const double pre = mean_epoch_time(run_static.rows, 0, kDropEpoch);
  const double post_static = mean_epoch_time(run_static.rows, kDropEpoch, kEpochs);
  std::size_t steady_from = kEpochs;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    if (run_adapt.rows[e].plan_generation > 0) {
      steady_from = e;
      break;
    }
  }
  const bool replanned = run_adapt.replans > 0 && steady_from < kEpochs;
  const double post_adapt =
      replanned ? mean_epoch_time(run_adapt.rows, steady_from, kEpochs) : post_static;
  const double regression = post_static - pre;
  const double recovered = post_static - post_adapt;
  const double fraction = regression > 0.0 ? recovered / regression : 0.0;
  std::printf("pre-drop %.1f s | static post-drop %.1f s | adaptive steady %.1f s | "
              "re-plans %zu\n",
              pre, post_static, post_adapt, run_adapt.replans);
  std::printf("regression %.1f s, recovered %.1f s (%.0f%%)\n", regression, recovered,
              100.0 * fraction);

  bool deterministic = run_adapt_again.replans == run_adapt.replans;
  for (std::size_t e = 0; deterministic && e < kEpochs; ++e) {
    const auto& a = run_adapt.rows[e];
    const auto& b = run_adapt_again.rows[e];
    deterministic = a.epoch_time.value() == b.epoch_time.value() &&
                    a.traffic.count() == b.traffic.count() &&
                    a.plan_generation == b.plan_generation &&
                    a.decision.outcome == b.decision.outcome;
  }

  if (!bench::ArtifactEmitter("sophon.bench_adapt")
           .meta("samples", static_cast<std::int64_t>(kSamples))
           .meta("seed", static_cast<std::int64_t>(kSeed))
           .meta("planned_mbps", kPlannedMbps)
           .meta("drop_factor", kDropFactor)
           .meta("drop_epoch", static_cast<std::int64_t>(kDropEpoch))
           .meta("recovered_fraction", fraction)
           .meta("replans", static_cast<std::int64_t>(run_adapt.replans))
           .write("BENCH_adapt.json", rows)) {
    return 1;
  }

  if (replanned && fraction >= 0.5 && deterministic) {
    std::printf("verified: adaptive replan recovers %.0f%% of the 4x-drop regression "
                "(>= 50%%), deterministic across runs\n",
                100.0 * fraction);
    return 0;
  }
  std::printf("FAILED: replans=%zu recovered=%.0f%% deterministic=%d\n", run_adapt.replans,
              100.0 * fraction, deterministic ? 1 : 0);
  return 1;
}
