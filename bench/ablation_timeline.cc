// Ablation A13 — link-utilisation timeline.
//
// The recorded epoch makes the bottleneck visible over time: under No-Off
// the inter-cluster link is pinned at ~100% for the whole epoch; under
// SOPHON the same training work finishes in half the time at a similar
// saturation level but with half the bytes, and per-sample latency drops.
#include "bench_common.h"
#include "core/profiler.h"
#include "core/decision.h"
#include "obs/replay_trace.h"
#include "prefetch/replay.h"

using namespace sophon;

namespace {

void run_variant(const char* name, const dataset::Catalog& catalog,
                 const pipeline::Pipeline& pipe, const pipeline::CostModel& cm,
                 const sim::ClusterConfig& cluster, Seconds batch_time,
                 const core::OffloadPlan& plan) {
  prefetch::EpochParams params;
  params.cluster = cluster;
  params.gpu_batch_time = batch_time;
  params.num_samples = catalog.size();
  const auto traced =
      prefetch::record_epoch(sim::plan_flow(catalog, pipe, cm, plan.assignment()), params);

  const Seconds bucket(10.0);
  const auto util = obs::link_utilization(traced.record, bucket);
  std::printf("%s: epoch %.1f s, traffic %s, mean per-sample latency %s\n", name,
              traced.epoch.epoch_time.value(), bench::gb(traced.epoch.traffic).c_str(),
              human_seconds(obs::mean_latency(traced.record)).c_str());
  std::printf("link utilisation per 10 s bucket:\n  ");
  for (std::size_t b = 0; b < util.size(); ++b) {
    static const char* kGlyphs[] = {" ", ".", ":", "-", "=", "#"};
    const auto level = static_cast<std::size_t>(util[b] * 5.0 + 0.5);
    std::printf("%s", kGlyphs[std::min<std::size_t>(level, 5)]);
  }
  std::printf("|  (%zu buckets; '#'=saturated, ' '=idle)\n\n", util.size());
}

}  // namespace

int main() {
  bench::print_header("Ablation A13 — link-utilisation timeline (OpenImages, 500 Mbps)",
                      "(beyond the paper: the per-sample trace behind its aggregate numbers)");

  const auto catalog = bench::openimages_catalog();
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  auto config = bench::paper_config(48);
  const auto gpu = model::GpuModel::lookup(config.net, config.gpu);
  const Seconds batch_time = gpu.batch_time(config.cluster.batch_size);
  const Seconds t_g = batch_time * static_cast<double>(
                                       (catalog.size() + config.cluster.batch_size - 1) /
                                       config.cluster.batch_size);

  run_variant("No-Off", catalog, pipe, cm, config.cluster, batch_time,
              core::OffloadPlan(catalog.size()));

  const auto profiles = core::profile_stage2(catalog, pipe, cm);
  const auto decision = core::decide_offloading(profiles, config.cluster, t_g);
  run_variant("SOPHON", catalog, pipe, cm, config.cluster, batch_time, decision.plan);
  return 0;
}
