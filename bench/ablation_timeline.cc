// Ablation A13 — link-utilisation timeline.
//
// The per-sample trace makes the bottleneck visible over time: under No-Off
// the inter-cluster link is pinned at ~100% for the whole epoch; under
// SOPHON the same training work finishes in half the time at a similar
// saturation level but with half the bytes, and per-sample latency drops.
#include "bench_common.h"
#include "core/profiler.h"
#include "core/decision.h"
#include "sim/trace.h"

using namespace sophon;

namespace {

void run_variant(const char* name, const dataset::Catalog& catalog,
                 const pipeline::Pipeline& pipe, const pipeline::CostModel& cm,
                 const sim::ClusterConfig& cluster, Seconds batch_time,
                 const core::OffloadPlan& plan) {
  sim::TraceRecorder recorder;
  const auto stats = sim::simulate_epoch_flows(catalog.size(),
                                               sim::plan_flow(catalog, pipe, cm, plan.assignment()),
                                               cluster, batch_time, 42, 0, recorder.sink());

  const Seconds bucket(10.0);
  const auto util = recorder.link_utilization(bucket, cluster.bandwidth);
  std::printf("%s: epoch %.1f s, traffic %s, mean per-sample latency %s\n", name,
              stats.epoch_time.value(), bench::gb(stats.traffic).c_str(),
              human_seconds(recorder.mean_latency()).c_str());
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
