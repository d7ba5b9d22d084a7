// End-to-end evaluation: plan with a policy, then simulate one training
// epoch under the plan — the comparison every evaluation bench drives.
#pragma once

#include <vector>

#include "core/policy.h"
#include "model/gpu_model.h"
#include "sim/trainer.h"

namespace sophon::core {

struct RunConfig {
  sim::ClusterConfig cluster;
  model::NetKind net = model::NetKind::kAlexNet;
  model::GpuKind gpu = model::GpuKind::kRtx6000;
  /// Data-parallel replicas: N GPUs consume batches N times faster, which
  /// is how the paper's intro argues the remote-I/O bottleneck worsens as
  /// accelerators multiply.
  int gpu_count = 1;
  std::uint64_t seed = 42;
};

struct PolicyRunResult {
  PolicyKind kind{};
  std::string name;
  PolicyDecision decision;
  sim::EpochStats stats;  // the one simulated epoch under the plan
};

/// Plan with `policy`, then simulate one training epoch under the plan.
/// Multi-epoch runs of a fixed plan go through core::adapt::run_adaptive
/// with `adapt = false` and `initial_plan`.
[[nodiscard]] PolicyRunResult run_policy(const Policy& policy, const dataset::Catalog& catalog,
                                         const pipeline::Pipeline& pipeline,
                                         const pipeline::CostModel& cost_model,
                                         const RunConfig& config);

/// Run all five policies under the same configuration (Fig 3 / Fig 4 rows).
[[nodiscard]] std::vector<PolicyRunResult> run_all_policies(const dataset::Catalog& catalog,
                                                            const pipeline::Pipeline& pipeline,
                                                            const pipeline::CostModel& cost_model,
                                                            const RunConfig& config);

}  // namespace sophon::core
