#include "plan_query.h"

#include "core/decision.h"
#include "core/profiler.h"
#include "net/wire.h"
#include "obs/critpath/critpath.h"
#include "obs/critpath/whatif.h"
#include "sim/trainer.h"

namespace perfbench {

using namespace sophon;

SophonPlan plan_sophon(const PlanSetting& s, SpanLog& log) {
  const auto& catalog = *s.catalog;
  SophonPlan out;
  {
    const auto span = log.span("core.stage1");
    core::Stage1Options options;
    options.seed = s.seed;
    out.io_bound = core::profile_stage1(catalog, *s.pipeline, *s.cost_model, s.cluster,
                                        s.gpu_batch_time, options)
                       .io_bound();
  }
  {
    const auto span = log.span("core.stage2");
    out.profiles = core::profile_stage2(catalog, *s.pipeline, *s.cost_model);
  }
  {
    const auto span = log.span("core.decide");
    const auto batches = (catalog.size() + s.cluster.batch_size - 1) / s.cluster.batch_size;
    auto decision = core::decide_offloading(out.profiles, s.cluster,
                                            s.gpu_batch_time * static_cast<double>(batches));
    out.plan = out.io_bound && s.cluster.storage_cores > 0 ? std::move(decision.plan)
                                                           : core::OffloadPlan(catalog.size());
  }
  return out;
}

QueryOutcome run_query(const PlanSetting& s, SpanLog& log) {
  const auto& catalog = *s.catalog;
  const auto& pipe = *s.pipeline;
  const auto& cm = *s.cost_model;
  const auto sophon_plan = plan_sophon(s, log);
  const auto& plan = sophon_plan.plan;

  QueryOutcome out;
  out.offloaded_share = plan.offloaded_fraction();
  out.forecast_bytes =
      core::forecast_plan_traffic(sophon_plan.profiles, plan).predicted.as_double();

  sim::EpochStats sim_stats;
  {
    const auto span = log.span("sim.simulate_epoch");
    sim_stats = sim::simulate_epoch(catalog, pipe, cm, s.cluster, s.gpu_batch_time,
                                    plan.assignment(), s.seed);
  }
  out.sim_epoch_s = sim_stats.epoch_time.value();
  out.sim_traffic_bytes = sim_stats.traffic.as_double();

  // The same per-sample demands simulate_epoch derives from the plan.
  const auto flow = [&](std::size_t idx) {
    const auto& raw = catalog.sample(idx).raw;
    const std::size_t prefix = plan.prefix(idx);
    sim::SampleFlow f;
    if (prefix > 0) f.storage_cpu = pipe.prefix_cost(raw, prefix, cm);
    f.wire = net::wire_size(pipe.shape_at(raw, prefix));
    f.compute_cpu = pipe.suffix_cost(raw, prefix, cm);
    f.stage = static_cast<std::uint8_t>(prefix);
    return f;
  };
  const obs::critpath::DemandFn demand = [&flow](std::size_t idx) {
    const auto f = flow(idx);
    return obs::critpath::SampleDemand{f.storage_cpu, f.compute_cpu, f.wire, f.delay};
  };

  obs::critpath::EpochParams replay_params;
  replay_params.cluster = s.cluster;
  replay_params.gpu_batch_time = s.gpu_batch_time;
  replay_params.seed = s.seed;
  replay_params.num_samples = catalog.size();
  replay_params.discipline = obs::critpath::Discipline::kWorkerReplay;
  replay_params.replay.workers = s.workers;
  replay_params.replay.prefetch.depth = s.prefetch_depth;

  prefetch::ReplayResult replay;
  {
    const auto span = log.span("prefetch.replay_epoch");
    replay = prefetch::replay_epoch(catalog.size(), flow, s.cluster, s.gpu_batch_time, s.seed, 0,
                                    replay_params.replay);
  }
  out.replay = replay.prefetch;

  {
    const auto span = log.span("critpath.analyze_epoch");
    const auto analysis =
        obs::critpath::analyze_epoch(demand, replay_params, replay.epoch.epoch_time);
    out.reconcile_worker_replay = analysis.reconcile_error;
    out.critpath_nodes = analysis.nodes;
  }

  auto window_params = replay_params;
  window_params.discipline = obs::critpath::Discipline::kBatchWindow;
  {
    // One scenario keeps a paper-scale query near 100-300 ms; the baseline
    // analysis inside project() is the batch-window analyze_epoch.
    const auto span = log.span("critpath.project");
    auto scenarios = obs::critpath::default_scenarios(window_params);
    scenarios.resize(1);
    const auto report =
        obs::critpath::project(demand, window_params, scenarios, sim_stats.epoch_time);
    out.reconcile_batch_window = report.baseline.reconcile_error;
  }
  return out;
}

}  // namespace perfbench
