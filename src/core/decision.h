// SOPHON's decision engine (§3.2).
//
// Starting from the no-offloading baseline — where T_Net dominates because
// stage 1 established the workload is I/O-bound — greedily offload the
// highest-efficiency samples, trading network time for storage CPU time,
// until the network stops being the predominant cost or no beneficial
// samples remain.
//
// The ordering and stop-rule knobs exist for the ablation benches; the
// defaults are exactly the paper's algorithm.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "core/plan.h"
#include "sim/cluster.h"

namespace sophon::core {

/// In which order candidate samples are considered.
enum class CandidateOrder {
  kByEfficiency,  // paper: descending size-reduction per CPU-second
  kByReduction,   // ablation: descending absolute size reduction
  kRandom,        // ablation: random order
};

/// When the greedy loop stops.
enum class StopRule {
  kNetPredominant,   // paper: stop once T_Net is no longer the largest term
  kExactMinimize,    // ablation: stop when the next offload would not lower
                     // the predicted epoch time
  kExhaustBenefits,  // ablation: offload every beneficial sample
};

struct DecisionOptions {
  CandidateOrder order = CandidateOrder::kByEfficiency;
  StopRule stop_rule = StopRule::kNetPredominant;
  std::uint64_t random_seed = 0;  // used by CandidateOrder::kRandom
};

struct DecisionResult {
  OffloadPlan plan;
  EpochCostVector baseline;  // cost vector before any offloading
  EpochCostVector final_cost;
  std::size_t beneficial_candidates = 0;  // samples with positive efficiency
  std::size_t offloaded = 0;
};

/// Run the decision engine over stage-2 profiles. `gpu_epoch_time` is T_G
/// for one epoch (from the stage-1 GPU throughput). If the cluster has no
/// storage cores, the result is the no-offload plan.
[[nodiscard]] DecisionResult decide_offloading(const std::vector<SampleProfile>& profiles,
                                               const sim::ClusterConfig& cluster,
                                               Seconds gpu_epoch_time,
                                               const DecisionOptions& options = {});

/// The cost vector of an arbitrary plan over the same profiles — used by
/// coarse planners (FastFlow) and the ablations to evaluate candidate plans
/// without running the simulator.
[[nodiscard]] EpochCostVector evaluate_plan(const std::vector<SampleProfile>& profiles,
                                            const OffloadPlan& plan,
                                            const sim::ClusterConfig& cluster,
                                            Seconds gpu_epoch_time);

/// The plan's predicted one-epoch link traffic against the all-raw
/// baseline, from the stage-2 profiles' exact wire sizes. decide_offloading
/// attaches this to its plan; callers with hand-built plans can compute it
/// directly.
[[nodiscard]] PlanTrafficForecast forecast_plan_traffic(
    const std::vector<SampleProfile>& profiles, const OffloadPlan& plan);

}  // namespace sophon::core
