#include "core/policy.h"

#include <gtest/gtest.h>

namespace sophon::core {
namespace {

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(3000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  RunConfig config = [] {
    RunConfig c;
    c.cluster.bandwidth = Bandwidth::mbps(100.0);
    return c;
  }();
};

TEST(Runner, RunsOnePolicyEndToEnd) {
  Fixture f;
  const auto result = run_policy(PolicyKind::kSophon, f.catalog, f.pipe, f.cm, f.config);
  EXPECT_EQ(result.kind, PolicyKind::kSophon);
  EXPECT_EQ(result.name, "SOPHON");
  EXPECT_GT(result.stats.epoch_time.value(), 0.0);
  EXPECT_GT(result.stats.traffic.count(), 0);
  EXPECT_EQ(result.stats.offloaded_samples, result.decision.plan.offloaded_count());
}

TEST(Runner, AllPoliciesProduceConsistentResults) {
  Fixture f;
  const auto results = run_all_policies(f.catalog, f.pipe, f.cm, f.config);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) {
    EXPECT_GT(r.stats.epoch_time.value(), 0.0);
    EXPECT_EQ(r.stats.samples, f.catalog.size());
  }
}

TEST(Runner, SophonNoWorseThanEveryBaseline) {
  // The headline property: under an I/O-bound configuration SOPHON's epoch
  // time is the minimum across all policies.
  Fixture f;
  const auto results = run_all_policies(f.catalog, f.pipe, f.cm, f.config);
  const auto* sophon = &results.back();
  ASSERT_EQ(sophon->kind, PolicyKind::kSophon);
  for (const auto& r : results) {
    EXPECT_LE(sophon->stats.epoch_time.value(), r.stats.epoch_time.value() * 1.001) << r.name;
  }
}

TEST(Runner, FastFlowMatchesNoOffInEvaluatedSetups) {
  Fixture f;
  const auto results = run_all_policies(f.catalog, f.pipe, f.cm, f.config);
  const auto& no_off = results[0];
  const auto& fastflow = results[2];
  EXPECT_EQ(fastflow.stats.traffic, no_off.stats.traffic);
  EXPECT_NEAR(fastflow.stats.epoch_time.value(), no_off.stats.epoch_time.value(), 1e-9);
}

TEST(Runner, GpuModelSelectionMatters) {
  Fixture f;
  f.config.net = model::NetKind::kAlexNet;
  const auto alex = run_policy(PolicyKind::kNoOff, f.catalog, f.pipe, f.cm, f.config);
  f.config.net = model::NetKind::kResNet50;
  const auto r50 = run_policy(PolicyKind::kNoOff, f.catalog, f.pipe, f.cm, f.config);
  EXPECT_GT(r50.stats.gpu_busy.value(), alex.stats.gpu_busy.value());
  EXPECT_GT(r50.stats.gpu_utilization, alex.stats.gpu_utilization);
}

}  // namespace
}  // namespace sophon::core
