// The planning path, driven through its public entry points: SOPHON's
// two-stage profiler and decision engine (core), then the model-side layers
// that predict the plan's epoch (sim, prefetch replay, critpath). No pixel
// is touched; everything runs on catalog shapes and the cost model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "core/plan.h"
#include "dataset/catalog.h"
#include "pipeline/cost_model.h"
#include "pipeline/pipeline.h"
#include "prefetch/replay.h"
#include "sim/cluster.h"
#include "span_log.h"

namespace perfbench {

/// Everything one planning query is asked about.
struct PlanSetting {
  const sophon::dataset::Catalog* catalog = nullptr;
  const sophon::pipeline::Pipeline* pipeline = nullptr;
  const sophon::pipeline::CostModel* cost_model = nullptr;
  sophon::sim::ClusterConfig cluster;
  sophon::Seconds gpu_batch_time;
  std::uint64_t seed = 0;
  /// Loader shape the worker-lane replay models.
  std::size_t workers = 4;
  std::size_t prefetch_depth = 16;
};

/// SOPHON's plan: stage-1 triage, and when the workload is I/O-bound the
/// stage-2 profiles and the greedy decision (otherwise nothing offloads).
/// Records spans core.stage1, core.stage2 and core.decide.
struct SophonPlan {
  sophon::core::OffloadPlan plan;
  std::vector<sophon::core::SampleProfile> profiles;
  bool io_bound = false;
};
[[nodiscard]] SophonPlan plan_sophon(const PlanSetting& setting, SpanLog& log);

/// What one query predicted.
struct QueryOutcome {
  double offloaded_share = 0.0;
  double forecast_bytes = 0.0;  // decision engine's one-epoch traffic forecast
  double sim_epoch_s = 0.0;     // sim::simulate_epoch
  double sim_traffic_bytes = 0.0;
  sophon::prefetch::ReplayStats replay;  // prefetch::replay_epoch
  double reconcile_batch_window = 0.0;  // critpath vs simulate_epoch
  double reconcile_worker_replay = 0.0;  // critpath vs replay_epoch
  std::size_t critpath_nodes = 0;
};

/// One planning query: plan_sophon, simulate_epoch, replay_epoch, a
/// worker-lane analyze_epoch and a batch-window what-if projection (whose
/// baseline is the batch-window analyze_epoch). Records a span per call.
[[nodiscard]] QueryOutcome run_query(const PlanSetting& setting, SpanLog& log);

}  // namespace perfbench
