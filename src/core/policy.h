// Offloading policies: SOPHON plus the paper's four baselines (§4), and the
// end-to-end evaluation every bench drives — plan with a policy, then
// simulate one training epoch under the plan.
//
//   No-Off     — the original training pipeline, nothing offloaded.
//   All-Off    — every op of every sample runs near storage.
//   FastFlow   — coarse offloading framework: treats the preprocessing
//                pipeline as a single unit and all samples alike; offloads
//                everything or nothing based on which its profile predicts
//                to be faster.
//   Resize-Off — offloads Decode + RandomResizedCrop for all samples.
//   SOPHON     — two-stage profiling + per-sample decision engine.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "core/decision.h"
#include "core/metrics.h"
#include "core/plan.h"
#include "dataset/catalog.h"
#include "model/gpu_model.h"
#include "pipeline/cost_model.h"
#include "pipeline/pipeline.h"
#include "sim/cluster.h"
#include "sim/trainer.h"

namespace sophon::core {

enum class PolicyKind { kNoOff, kAllOff, kFastFlow, kResizeOff, kSophon };

/// All five policies in the paper's presentation order (Fig 3 / Fig 4 rows).
inline constexpr std::array<PolicyKind, 5> kPolicyKinds = {
    PolicyKind::kNoOff, PolicyKind::kAllOff, PolicyKind::kFastFlow, PolicyKind::kResizeOff,
    PolicyKind::kSophon};

[[nodiscard]] std::string_view policy_kind_name(PolicyKind kind);

/// Everything a policy may consult when planning.
struct PlanContext {
  const dataset::Catalog* catalog = nullptr;
  const pipeline::Pipeline* pipeline = nullptr;
  const pipeline::CostModel* cost_model = nullptr;
  sim::ClusterConfig cluster;
  Seconds gpu_batch_time;
  std::uint64_t seed = 0;

  /// T_G for one epoch under this context.
  [[nodiscard]] Seconds gpu_epoch_time() const;
};

/// A policy's output: the plan plus an explanation of how it was reached.
struct PolicyDecision {
  OffloadPlan plan;
  bool offloading_active = false;
  std::string rationale;
};

/// Plan with the policy `kind` under `context`.
[[nodiscard]] PolicyDecision plan_policy(PolicyKind kind, const PlanContext& context);

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

/// Plan with the policy `kind`, then simulate one training epoch under the
/// plan. Multi-epoch runs of a fixed plan go through
/// core::adapt::run_adaptive with `adapt = false` and `initial_plan`.
[[nodiscard]] PolicyRunResult run_policy(PolicyKind kind, const dataset::Catalog& catalog,
                                         const pipeline::Pipeline& pipeline,
                                         const pipeline::CostModel& cost_model,
                                         const RunConfig& config);

/// Run all five policies under the same configuration, in kPolicyKinds order.
[[nodiscard]] std::vector<PolicyRunResult> run_all_policies(const dataset::Catalog& catalog,
                                                            const pipeline::Pipeline& pipeline,
                                                            const pipeline::CostModel& cost_model,
                                                            const RunConfig& config);

}  // namespace sophon::core
