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

namespace {

void check_context(const PlanContext& ctx) {
  SOPHON_CHECK(ctx.catalog != nullptr && !ctx.catalog->empty());
  SOPHON_CHECK(ctx.pipeline != nullptr && ctx.pipeline->size() > 0);
  SOPHON_CHECK(ctx.cost_model != nullptr);
  SOPHON_CHECK(ctx.gpu_batch_time.value() > 0.0);
}

class NoOffPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kNoOff; }

  [[nodiscard]] PolicyDecision plan(const PlanContext& ctx) const override {
    check_context(ctx);
    PolicyDecision d;
    d.plan = OffloadPlan(ctx.catalog->size());
    d.offloading_active = false;
    d.rationale = "original training pipeline; all preprocessing on the compute node";
    return d;
  }
};

class AllOffPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kAllOff; }

  [[nodiscard]] PolicyDecision plan(const PlanContext& ctx) const override {
    check_context(ctx);
    PolicyDecision d;
    if (ctx.cluster.storage_cores == 0) {
      d.plan = OffloadPlan(ctx.catalog->size());
      d.offloading_active = false;
      d.rationale = "storage node has no preprocessing cores; cannot offload";
      return d;
    }
    d.plan = OffloadPlan::uniform(ctx.catalog->size(),
                                  static_cast<std::uint8_t>(ctx.pipeline->size()));
    d.offloading_active = true;
    d.rationale = "all preprocessing operations of all samples offloaded";
    return d;
  }
};

class ResizeOffPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kResizeOff; }

  [[nodiscard]] PolicyDecision plan(const PlanContext& ctx) const override {
    check_context(ctx);
    PolicyDecision d;
    if (ctx.cluster.storage_cores == 0) {
      d.plan = OffloadPlan(ctx.catalog->size());
      d.offloading_active = false;
      d.rationale = "storage node has no preprocessing cores; cannot offload";
      return d;
    }
    // Decode + RandomResizedCrop — the prefix that shrinks large photos.
    d.plan = OffloadPlan::uniform(ctx.catalog->size(), 2);
    d.offloading_active = true;
    d.rationale = "Decode and RandomResizedCrop offloaded for every sample";
    return d;
  }
};

class FastFlowPolicy final : public Policy {
 public:
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kFastFlow; }

  [[nodiscard]] PolicyDecision plan(const PlanContext& ctx) const override {
    check_context(ctx);
    PolicyDecision d;
    const std::size_t n = ctx.catalog->size();
    if (ctx.cluster.storage_cores == 0) {
      d.plan = OffloadPlan(n);
      d.offloading_active = false;
      d.rationale = "storage node has no preprocessing cores; cannot offload";
      return d;
    }
    // Coarse profile: compare predicted epoch time with nothing offloaded
    // vs. *everything* offloaded (FastFlow's all-or-nothing granularity).
    const auto profiles = profile_stage2(*ctx.catalog, *ctx.pipeline, *ctx.cost_model);
    const auto none = OffloadPlan(n);
    const auto all = OffloadPlan::uniform(n, static_cast<std::uint8_t>(ctx.pipeline->size()));
    const Seconds t_none =
        evaluate_plan(profiles, none, ctx.cluster, ctx.gpu_epoch_time()).predicted_epoch_time();
    const Seconds t_all =
        evaluate_plan(profiles, all, ctx.cluster, ctx.gpu_epoch_time()).predicted_epoch_time();
    if (t_all < t_none) {
      d.plan = all;
      d.offloading_active = true;
      d.rationale = strf("coarse profile predicts offloading all ops is faster (%.1fs vs %.1fs)",
                         t_all.value(), t_none.value());
    } else {
      d.plan = none;
      d.offloading_active = false;
      d.rationale =
          strf("coarse profile predicts offloading all ops would increase epoch time "
               "(%.1fs vs %.1fs); not offloading",
               t_all.value(), t_none.value());
    }
    return d;
  }
};

class SophonPolicy final : public Policy {
 public:
  explicit SophonPolicy(const DecisionOptions& options) : options_(options) {}

  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::kSophon; }

  [[nodiscard]] PolicyDecision plan(const PlanContext& ctx) const override {
    check_context(ctx);
    PolicyDecision d;
    const std::size_t n = ctx.catalog->size();

    // Stage 1: bottleneck triage. Offloading activates only when I/O-bound.
    Stage1Options s1;
    s1.seed = ctx.seed;
    const auto throughput = profile_stage1(*ctx.catalog, *ctx.pipeline, *ctx.cost_model,
                                           ctx.cluster, ctx.gpu_batch_time, s1);
    if (!throughput.io_bound() || ctx.cluster.storage_cores == 0) {
      d.plan = OffloadPlan(n);
      d.offloading_active = false;
      d.rationale = ctx.cluster.storage_cores == 0
                        ? "workload is I/O-bound but the storage node has no cores; "
                          "falling back to local preprocessing"
                        : strf("stage-1 profile: bottleneck is %s, not I/O; no offloading",
                               std::string(bottleneck_name(throughput.bottleneck())).c_str());
      return d;
    }

    // Stage 2 + decision engine.
    const auto profiles = profile_stage2(*ctx.catalog, *ctx.pipeline, *ctx.cost_model);
    auto result = decide_offloading(profiles, ctx.cluster, ctx.gpu_epoch_time(), options_);
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

 private:
  DecisionOptions options_;
};

}  // namespace

std::unique_ptr<Policy> make_policy(PolicyKind kind, const DecisionOptions& sophon_options) {
  switch (kind) {
    case PolicyKind::kNoOff:
      return std::make_unique<NoOffPolicy>();
    case PolicyKind::kAllOff:
      return std::make_unique<AllOffPolicy>();
    case PolicyKind::kFastFlow:
      return std::make_unique<FastFlowPolicy>();
    case PolicyKind::kResizeOff:
      return std::make_unique<ResizeOffPolicy>();
    case PolicyKind::kSophon:
      return std::make_unique<SophonPolicy>(sophon_options);
  }
  SOPHON_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

std::vector<std::unique_ptr<Policy>> make_all_policies() {
  std::vector<std::unique_ptr<Policy>> policies;
  policies.push_back(make_policy(PolicyKind::kNoOff));
  policies.push_back(make_policy(PolicyKind::kAllOff));
  policies.push_back(make_policy(PolicyKind::kFastFlow));
  policies.push_back(make_policy(PolicyKind::kResizeOff));
  policies.push_back(make_policy(PolicyKind::kSophon));
  return policies;
}

}  // namespace sophon::core
