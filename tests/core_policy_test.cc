#include "core/policy.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace sophon::core {
namespace {

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(3000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;

  PlanContext context(Seconds batch_time = Seconds::millis(85.0)) const {
    PlanContext ctx;
    ctx.catalog = &catalog;
    ctx.pipeline = &pipe;
    ctx.cost_model = &cm;
    ctx.cluster.bandwidth = Bandwidth::mbps(100.0);
    ctx.gpu_batch_time = batch_time;
    ctx.seed = 42;
    return ctx;
  }
};

TEST(PolicyNames, MatchPaper) {
  EXPECT_EQ(policy_kind_name(PolicyKind::kNoOff), "No-Off");
  EXPECT_EQ(policy_kind_name(PolicyKind::kAllOff), "All-Off");
  EXPECT_EQ(policy_kind_name(PolicyKind::kFastFlow), "FastFlow");
  EXPECT_EQ(policy_kind_name(PolicyKind::kResizeOff), "Resize-Off");
  EXPECT_EQ(policy_kind_name(PolicyKind::kSophon), "SOPHON");
}

TEST(PlanContext, GpuEpochTime) {
  Fixture f;
  const auto ctx = f.context(Seconds::millis(100.0));
  // 3000 samples / 256 per batch = 12 batches.
  EXPECT_NEAR(ctx.gpu_epoch_time().value(), 1.2, 1e-9);
}

TEST(NoOff, NeverOffloads) {
  Fixture f;
  const auto d = plan_policy(PolicyKind::kNoOff, f.context());
  EXPECT_FALSE(d.offloading_active);
  EXPECT_EQ(d.plan.offloaded_count(), 0u);
}

TEST(AllOff, OffloadsWholePipelineForEverySample) {
  Fixture f;
  const auto d = plan_policy(PolicyKind::kAllOff, f.context());
  EXPECT_TRUE(d.offloading_active);
  EXPECT_EQ(d.plan.offloaded_count(), f.catalog.size());
  for (std::size_t i = 0; i < d.plan.size(); ++i) EXPECT_EQ(d.plan.prefix(i), 5);
}

TEST(ResizeOff, OffloadsDecodeAndCrop) {
  Fixture f;
  const auto d = plan_policy(PolicyKind::kResizeOff, f.context());
  EXPECT_TRUE(d.offloading_active);
  for (std::size_t i = 0; i < d.plan.size(); ++i) EXPECT_EQ(d.plan.prefix(i), 2);
}

TEST(FastFlow, DeclinesWhenAllOffWouldBeSlower) {
  // The evaluated setups of the paper: float-tensor payloads inflate
  // traffic, so FastFlow's all-or-nothing profile says "don't".
  Fixture f;
  const auto d = plan_policy(PolicyKind::kFastFlow, f.context());
  EXPECT_FALSE(d.offloading_active);
  EXPECT_EQ(d.plan.offloaded_count(), 0u);
  EXPECT_NE(d.rationale.find("not offloading"), std::string::npos);
}

TEST(FastFlow, AcceptsWhenOffloadingEverythingHelps) {
  // Contrived regime: compute node has a single core (CPU-bound locally)
  // while the storage node has plenty — offloading all ops wins even with
  // bigger payloads because the link is fast.
  Fixture f;
  auto ctx = f.context(Seconds::millis(20.0));
  ctx.cluster.bandwidth = Bandwidth::gbps(50.0);
  ctx.cluster.compute_cores = 1;
  ctx.cluster.storage_cores = 48;
  const auto d = plan_policy(PolicyKind::kFastFlow, ctx);
  EXPECT_TRUE(d.offloading_active);
  EXPECT_EQ(d.plan.offloaded_count(), f.catalog.size());
}

TEST(Sophon, OffloadsSelectivelyWhenIoBound) {
  Fixture f;
  const auto d = plan_policy(PolicyKind::kSophon, f.context());
  EXPECT_TRUE(d.offloading_active);
  EXPECT_GT(d.plan.offloaded_count(), 0u);
  EXPECT_LT(d.plan.offloaded_count(), f.catalog.size());  // selective!
  EXPECT_NE(d.rationale.find("I/O-bound"), std::string::npos);
}

TEST(Sophon, DeclinesWhenGpuBound) {
  Fixture f;
  auto ctx = f.context(Seconds(2.0));  // very slow model
  ctx.cluster.bandwidth = Bandwidth::gbps(10.0);
  const auto d = plan_policy(PolicyKind::kSophon, ctx);
  EXPECT_FALSE(d.offloading_active);
  EXPECT_NE(d.rationale.find("GPU"), std::string::npos);
}

TEST(Sophon, DeclinesWhenCpuBound) {
  Fixture f;
  auto ctx = f.context(Seconds::millis(10.0));
  ctx.cluster.bandwidth = Bandwidth::gbps(10.0);
  ctx.cluster.compute_cores = 1;
  const auto d = plan_policy(PolicyKind::kSophon, ctx);
  EXPECT_FALSE(d.offloading_active);
  EXPECT_NE(d.rationale.find("CPU"), std::string::npos);
}

TEST(Sophon, FallsBackWithoutStorageCores) {
  Fixture f;
  auto ctx = f.context();
  ctx.cluster.storage_cores = 0;
  const auto d = plan_policy(PolicyKind::kSophon, ctx);
  EXPECT_FALSE(d.offloading_active);
  EXPECT_EQ(d.plan.offloaded_count(), 0u);
}

TEST(OffloadCapablePolicies, FallBackWithoutStorageCores) {
  Fixture f;
  auto ctx = f.context();
  ctx.cluster.storage_cores = 0;
  for (const auto kind : {PolicyKind::kAllOff, PolicyKind::kResizeOff, PolicyKind::kFastFlow}) {
    const auto d = plan_policy(kind, ctx);
    EXPECT_FALSE(d.offloading_active) << policy_kind_name(kind);
    EXPECT_EQ(d.plan.offloaded_count(), 0u) << policy_kind_name(kind);
  }
}

TEST(PolicyKinds, FiveInPresentationOrder) {
  ASSERT_EQ(kPolicyKinds.size(), 5u);
  EXPECT_EQ(kPolicyKinds[0], PolicyKind::kNoOff);
  EXPECT_EQ(kPolicyKinds[1], PolicyKind::kAllOff);
  EXPECT_EQ(kPolicyKinds[2], PolicyKind::kFastFlow);
  EXPECT_EQ(kPolicyKinds[3], PolicyKind::kResizeOff);
  EXPECT_EQ(kPolicyKinds[4], PolicyKind::kSophon);
}

TEST(Policies, RejectIncompleteContext) {
  const PlanContext empty;
  EXPECT_THROW((void)plan_policy(PolicyKind::kNoOff, empty), ContractViolation);
}

}  // namespace
}  // namespace sophon::core
