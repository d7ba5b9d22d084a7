#include "core/policy.h"

#include "core/profiler.h"
#include "util/check.h"
#include "util/table.h"

namespace sophon::core {

std::string_view policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNoOff:
      return "No-Off";
    case PolicyKind::kAllOff:
      return "All-Off";
    case PolicyKind::kFastFlow:
      return "FastFlow";
    case PolicyKind::kResizeOff:
      return "Resize-Off";
    case PolicyKind::kSophon:
      return "SOPHON";
  }
  return "Unknown";
}

Seconds PlanContext::gpu_epoch_time() const {
  SOPHON_CHECK(catalog != nullptr);
  return core::gpu_epoch_time(catalog->size(), cluster.batch_size, gpu_batch_time);
}

PolicyDecision plan_policy(PolicyKind kind, const PlanContext& ctx) {
  SOPHON_CHECK(ctx.catalog != nullptr && !ctx.catalog->empty());
  SOPHON_CHECK(ctx.pipeline != nullptr && ctx.pipeline->size() > 0);
  SOPHON_CHECK(ctx.cost_model != nullptr);
  SOPHON_CHECK(ctx.gpu_batch_time.value() > 0.0);
  const std::size_t n = ctx.catalog->size();
  const auto whole_pipeline = static_cast<std::uint8_t>(ctx.pipeline->size());
  PolicyDecision d;
  d.plan = OffloadPlan(n);

  // The three blanket offloaders cannot run without storage cores. SOPHON
  // triages the bottleneck first and words its own fallback.
  const bool blanket = kind == PolicyKind::kAllOff || kind == PolicyKind::kFastFlow ||
                       kind == PolicyKind::kResizeOff;
  if (blanket && ctx.cluster.storage_cores == 0) {
    d.rationale = "storage node has no preprocessing cores; cannot offload";
    return d;
  }

  switch (kind) {
    case PolicyKind::kNoOff:
      d.rationale = "original training pipeline; all preprocessing on the compute node";
      return d;

    case PolicyKind::kAllOff:
      d.plan = OffloadPlan::uniform(n, whole_pipeline);
      d.offloading_active = true;
      d.rationale = "all preprocessing operations of all samples offloaded";
      return d;

    case PolicyKind::kResizeOff:
      // Decode + RandomResizedCrop — the prefix that shrinks large photos.
      d.plan = OffloadPlan::uniform(n, 2);
      d.offloading_active = true;
      d.rationale = "Decode and RandomResizedCrop offloaded for every sample";
      return d;

    case PolicyKind::kFastFlow: {
      // Coarse profile: compare predicted epoch time with nothing offloaded
      // vs. *everything* offloaded (FastFlow's all-or-nothing granularity).
      const auto profiles = profile_stage2(*ctx.catalog, *ctx.pipeline, *ctx.cost_model);
      const auto all = OffloadPlan::uniform(n, whole_pipeline);
      const Seconds t_none =
          evaluate_plan(profiles, d.plan, ctx.cluster, ctx.gpu_epoch_time()).predicted_epoch_time();
      const Seconds t_all =
          evaluate_plan(profiles, all, ctx.cluster, ctx.gpu_epoch_time()).predicted_epoch_time();
      if (t_all < t_none) {
        d.plan = all;
        d.offloading_active = true;
        d.rationale = strf("coarse profile predicts offloading all ops is faster (%.1fs vs %.1fs)",
                           t_all.value(), t_none.value());
      } else {
        d.rationale =
            strf("coarse profile predicts offloading all ops would increase epoch time "
                 "(%.1fs vs %.1fs); not offloading",
                 t_all.value(), t_none.value());
      }
      return d;
    }

    case PolicyKind::kSophon: {
      // Stage 1: bottleneck triage. Offloading activates only when I/O-bound.
      Stage1Options s1;
      s1.seed = ctx.seed;
      const auto throughput = profile_stage1(*ctx.catalog, *ctx.pipeline, *ctx.cost_model,
                                             ctx.cluster, ctx.gpu_batch_time, s1);
      if (!throughput.io_bound() || ctx.cluster.storage_cores == 0) {
        d.rationale = ctx.cluster.storage_cores == 0
                          ? "workload is I/O-bound but the storage node has no cores; "
                            "falling back to local preprocessing"
                          : strf("stage-1 profile: bottleneck is %s, not I/O; no offloading",
                                 std::string(bottleneck_name(throughput.bottleneck())).c_str());
        return d;
      }

      // Stage 2 + decision engine.
      const auto profiles = profile_stage2(*ctx.catalog, *ctx.pipeline, *ctx.cost_model);
      auto result = decide_offloading(profiles, ctx.cluster, ctx.gpu_epoch_time());
      d.offloading_active = result.offloaded > 0;
      d.rationale = strf(
          "I/O-bound (gpu %.0f, io %.0f, cpu %.0f samples/s); offloaded %zu of %zu beneficial "
          "samples; predicted T_Net %.1fs -> %.1fs, T_CS %.1fs",
          throughput.gpu_samples_per_sec, throughput.io_samples_per_sec,
          throughput.cpu_samples_per_sec, result.offloaded, result.beneficial_candidates,
          result.baseline.t_net.value(), result.final_cost.t_net.value(),
          result.final_cost.t_cs.value());
      d.plan = std::move(result.plan);
      return d;
    }
  }
  SOPHON_CHECK_MSG(false, "unknown policy kind");
  return d;
}

PolicyRunResult run_policy(PolicyKind kind, const dataset::Catalog& catalog,
                           const pipeline::Pipeline& pipeline,
                           const pipeline::CostModel& cost_model, const RunConfig& config) {
  SOPHON_CHECK(config.gpu_count >= 1);
  const auto gpu_model = model::GpuModel::lookup(config.net, config.gpu);
  const Seconds batch_time =
      gpu_model.batch_time(config.cluster.batch_size) / static_cast<double>(config.gpu_count);

  PlanContext ctx;
  ctx.catalog = &catalog;
  ctx.pipeline = &pipeline;
  ctx.cost_model = &cost_model;
  ctx.cluster = config.cluster;
  ctx.gpu_batch_time = batch_time;
  ctx.seed = config.seed;

  PolicyRunResult result;
  result.kind = kind;
  result.name = std::string(policy_kind_name(kind));
  result.decision = plan_policy(kind, ctx);
  result.stats = sim::simulate_epoch(catalog, pipeline, cost_model, config.cluster, batch_time,
                                     result.decision.plan.assignment(), config.seed);
  return result;
}

std::vector<PolicyRunResult> run_all_policies(const dataset::Catalog& catalog,
                                              const pipeline::Pipeline& pipeline,
                                              const pipeline::CostModel& cost_model,
                                              const RunConfig& config) {
  std::vector<PolicyRunResult> results;
  for (const auto kind : kPolicyKinds) {
    results.push_back(run_policy(kind, catalog, pipeline, cost_model, config));
  }
  return results;
}

}  // namespace sophon::core
