#include "core/decision.h"

#include <gtest/gtest.h>

#include "core/profiler.h"
#include "dataset/catalog.h"
#include "pipeline/pipeline.h"
#include "util/check.h"

namespace sophon::core {
namespace {

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(4000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  std::vector<SampleProfile> profiles = profile_stage2(catalog, pipe, cm);
  sim::ClusterConfig cluster = [] {
    sim::ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(100.0);
    return c;
  }();
  Seconds t_g = Seconds(4.0);  // compute-light model: far below T_Net
};

TEST(Decision, BaselineIsNetBound) {
  Fixture f;
  const auto result = decide_offloading(f.profiles, f.cluster, f.t_g);
  EXPECT_TRUE(result.baseline.net_predominant());
  EXPECT_DOUBLE_EQ(result.baseline.t_cs.value(), 0.0);
  EXPECT_DOUBLE_EQ(result.baseline.t_g.value(), 4.0);
}

TEST(Decision, OffloadsOnlyBeneficialSamples) {
  Fixture f;
  const auto result = decide_offloading(f.profiles, f.cluster, f.t_g);
  EXPECT_GT(result.offloaded, 0u);
  EXPECT_LE(result.offloaded, result.beneficial_candidates);
  for (std::size_t i = 0; i < f.profiles.size(); ++i) {
    const auto prefix = result.plan.prefix(i);
    if (prefix > 0) {
      EXPECT_EQ(prefix, f.profiles[i].min_stage);
      EXPECT_TRUE(f.profiles[i].benefits());
    }
  }
}

TEST(Decision, ReducesNetworkTime) {
  Fixture f;
  const auto result = decide_offloading(f.profiles, f.cluster, f.t_g);
  EXPECT_LT(result.final_cost.t_net.value(), result.baseline.t_net.value());
  EXPECT_GT(result.final_cost.t_cs.value(), 0.0);
  // Local CPU can only shrink when work moves to storage.
  EXPECT_LE(result.final_cost.t_cc.value(), result.baseline.t_cc.value());
}

TEST(Decision, NeverWorsensPredictedEpochTime) {
  Fixture f;
  for (const int cores : {1, 2, 4, 8, 48}) {
    f.cluster.storage_cores = cores;
    const auto result = decide_offloading(f.profiles, f.cluster, f.t_g);
    EXPECT_LE(result.final_cost.predicted_epoch_time().value(),
              result.baseline.predicted_epoch_time().value() + 1e-9)
        << cores << " cores";
  }
}

TEST(Decision, LimitedCoresOffloadFewerSamples) {
  Fixture f;
  f.cluster.storage_cores = 1;
  const auto one = decide_offloading(f.profiles, f.cluster, f.t_g);
  f.cluster.storage_cores = 48;
  const auto many = decide_offloading(f.profiles, f.cluster, f.t_g);
  EXPECT_LT(one.offloaded, many.offloaded);
}

TEST(Decision, StopsWhenNetNoLongerPredominant) {
  Fixture f;
  f.cluster.storage_cores = 1;
  const auto result = decide_offloading(f.profiles, f.cluster, f.t_g);
  // With one storage core the greedy loop must stop early with T_CS having
  // caught up to T_Net (the crossing point), not exhaust all candidates.
  EXPECT_LT(result.offloaded, result.beneficial_candidates);
  EXPECT_NEAR(result.final_cost.t_cs.value(), result.final_cost.t_net.value(),
              0.05 * result.final_cost.t_net.value());
}

TEST(Decision, ZeroStorageCoresMeansNoOffloading) {
  Fixture f;
  f.cluster.storage_cores = 0;
  const auto result = decide_offloading(f.profiles, f.cluster, f.t_g);
  EXPECT_EQ(result.offloaded, 0u);
  EXPECT_EQ(result.plan.offloaded_count(), 0u);
}

TEST(Decision, NotNetBoundBaselineOffloadsNothing) {
  Fixture f;
  const auto result = decide_offloading(f.profiles, f.cluster, Seconds(100000.0));
  EXPECT_EQ(result.offloaded, 0u);  // GPU already predominant
}

TEST(Decision, EfficiencyOrderingIsGreedyOptimalPrefix) {
  // Samples actually offloaded must have efficiency >= every skipped
  // beneficial sample (the greedy picks a prefix of the sorted order).
  Fixture f;
  f.cluster.storage_cores = 2;
  const auto result = decide_offloading(f.profiles, f.cluster, f.t_g);
  double min_taken = 1e300;
  double max_skipped = 0.0;
  for (std::size_t i = 0; i < f.profiles.size(); ++i) {
    if (!f.profiles[i].benefits()) continue;
    const double eff = f.profiles[i].efficiency();
    if (result.plan.prefix(i) > 0) {
      min_taken = std::min(min_taken, eff);
    } else {
      max_skipped = std::max(max_skipped, eff);
    }
  }
  EXPECT_GE(min_taken, max_skipped);
}

TEST(Decision, ExhaustBenefitsOffloadsAllCandidates) {
  Fixture f;
  DecisionOptions opts;
  opts.stop_rule = StopRule::kExhaustBenefits;
  const auto result = decide_offloading(f.profiles, f.cluster, f.t_g, opts);
  EXPECT_EQ(result.offloaded, result.beneficial_candidates);
}

TEST(Decision, ExactMinimizeNeverWorseThanPaperRule) {
  Fixture f;
  for (const int cores : {1, 4, 48}) {
    f.cluster.storage_cores = cores;
    const auto paper = decide_offloading(f.profiles, f.cluster, f.t_g);
    DecisionOptions opts;
    opts.stop_rule = StopRule::kExactMinimize;
    const auto exact = decide_offloading(f.profiles, f.cluster, f.t_g, opts);
    EXPECT_LE(exact.final_cost.predicted_epoch_time().value(),
              paper.final_cost.predicted_epoch_time().value() + 1e-9);
  }
}

TEST(Decision, EfficiencyOrderBeatsRandomOrderUnderTightCores) {
  Fixture f;
  f.cluster.storage_cores = 1;
  const auto by_eff = decide_offloading(f.profiles, f.cluster, f.t_g);
  DecisionOptions opts;
  opts.order = CandidateOrder::kRandom;
  opts.random_seed = 7;
  const auto random = decide_offloading(f.profiles, f.cluster, f.t_g, opts);
  EXPECT_LE(by_eff.final_cost.t_net.value(), random.final_cost.t_net.value() + 1e-9);
}

// Two efficiency tiers of identical samples: every third sample saves twice
// the bytes for the same prefix cost. The greedy must take the high tier,
// then the low tier, each in ascending index order, so where it stops inside
// the low tier the offloaded samples are exactly that tier's first ones.
std::vector<SampleProfile> tied_profiles() {
  std::vector<SampleProfile> profiles(30);
  for (std::uint32_t i = 0; i < profiles.size(); ++i) {
    SampleProfile& p = profiles[i];
    const bool high = i % 3 == 0;
    p.sample_index = i;
    p.stage_sizes = {Bytes(high ? 180'000 : 100'000), Bytes(20'000), Bytes(30'000)};
    p.op_costs = {Seconds::millis(1.0), Seconds::millis(1.0)};
    p.min_stage = 1;
    p.reduction = p.stage_sizes[0] - p.stage_sizes[1];
    p.prefix_time = p.op_costs[0];
  }
  return profiles;
}

void expect_tiers_in_index_order(const std::vector<SampleProfile>& profiles,
                                 const OffloadPlan& plan) {
  std::size_t low_taken = 0;
  bool low_gap = false;
  for (std::uint32_t i = 0; i < profiles.size(); ++i) {
    const bool taken = plan.prefix(i) > 0;
    if (i % 3 == 0) {
      EXPECT_TRUE(taken) << "high-efficiency sample " << i;
    } else if (taken) {
      EXPECT_FALSE(low_gap) << "low-efficiency sample " << i << " taken after a skipped one";
      ++low_taken;
    } else {
      low_gap = true;
    }
  }
  // The stop falls strictly inside the low tier, so the order is observable.
  EXPECT_GT(low_taken, 0u);
  EXPECT_LT(low_taken, 20u);
}

TEST(Decision, EqualEfficienciesOffloadInAscendingIndexOrder) {
  const auto profiles = tied_profiles();
  sim::ClusterConfig cluster;
  cluster.storage_cores = 1;
  cluster.bandwidth = Bandwidth::mbps(600.0);
  const Seconds t_g = Seconds::millis(1.0);

  expect_tiers_in_index_order(profiles, decide_offloading(profiles, cluster, t_g).plan);
}

TEST(EvaluatePlan, MatchesDecisionAccounting) {
  Fixture f;
  const auto result = decide_offloading(f.profiles, f.cluster, f.t_g);
  const auto evaluated = evaluate_plan(f.profiles, result.plan, f.cluster, f.t_g);
  EXPECT_NEAR(evaluated.t_net.value(), result.final_cost.t_net.value(), 1e-6);
  EXPECT_NEAR(evaluated.t_cs.value(), result.final_cost.t_cs.value(), 1e-6);
  EXPECT_NEAR(evaluated.t_cc.value(), result.final_cost.t_cc.value(), 1e-6);
}

TEST(EvaluatePlan, RejectsSizeMismatch) {
  Fixture f;
  const OffloadPlan wrong(10);
  EXPECT_THROW((void)evaluate_plan(f.profiles, wrong, f.cluster, f.t_g), ContractViolation);
}

TEST(EvaluatePlan, RejectsOffloadWithoutCores) {
  Fixture f;
  f.cluster.storage_cores = 0;
  const auto plan = OffloadPlan::uniform(f.profiles.size(), 2);
  EXPECT_THROW((void)evaluate_plan(f.profiles, plan, f.cluster, f.t_g), ContractViolation);
}

TEST(Decision, HeterogeneousStorageSpeedScalesTcs) {
  Fixture f;
  f.cluster.storage_cores = 2;
  f.cluster.storage_core_speed = 1.0;
  const auto normal = decide_offloading(f.profiles, f.cluster, f.t_g);
  f.cluster.storage_core_speed = 2.0;  // faster storage CPUs
  const auto fast = decide_offloading(f.profiles, f.cluster, f.t_g);
  // Faster storage cores let SOPHON offload at least as much.
  EXPECT_GE(fast.offloaded, normal.offloaded);
}

TEST(OffloadPlan, Accessors) {
  OffloadPlan plan(4);
  EXPECT_EQ(plan.offloaded_count(), 0u);
  plan.set(1, 2);
  plan.set(3, 5);
  EXPECT_EQ(plan.offloaded_count(), 2u);
  EXPECT_DOUBLE_EQ(plan.offloaded_fraction(), 0.5);
  EXPECT_EQ(plan.prefix(1), 2);
  EXPECT_THROW(plan.set(4, 1), ContractViolation);
  EXPECT_THROW((void)plan.prefix(4), ContractViolation);
  const auto uniform = OffloadPlan::uniform(3, 5);
  EXPECT_EQ(uniform.offloaded_count(), 3u);
}

}  // namespace
}  // namespace sophon::core
