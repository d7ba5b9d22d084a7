// Fuzz the decision engine with synthetic random profiles (not derived from
// any catalog): whatever the size/cost landscape, the structural invariants
// must hold and the internal ledger must agree with the independent
// evaluator.
#include <gtest/gtest.h>

#include "core/decision.h"
#include "util/rng.h"

namespace sophon::core {
namespace {

std::vector<SampleProfile> random_profiles(Rng& rng, std::size_t n) {
  std::vector<SampleProfile> profiles;
  profiles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SampleProfile p;
    p.sample_index = static_cast<std::uint32_t>(i);
    const std::size_t stages = 1 + static_cast<std::size_t>(rng.uniform_int(1, 6));
    p.stage_sizes.reserve(stages + 1);
    p.stage_sizes.push_back(Bytes(rng.uniform_int(1'000, 2'000'000)));
    for (std::size_t s = 0; s < stages; ++s) {
      // Sizes wander up and down arbitrarily.
      const double factor = rng.uniform(0.1, 4.0);
      const auto prev = p.stage_sizes.back().as_double();
      p.stage_sizes.push_back(Bytes(std::max<std::int64_t>(
          16, static_cast<std::int64_t>(prev * factor))));
      p.op_costs.push_back(Seconds(rng.uniform(1e-5, 5e-2)));
    }
    // Derive min stage / reduction / prefix time the way stage 2 does.
    std::size_t best = 0;
    for (std::size_t s = 1; s < p.stage_sizes.size(); ++s) {
      if (p.stage_sizes[s] < p.stage_sizes[best]) best = s;
    }
    p.min_stage = static_cast<std::uint32_t>(best);
    p.reduction = p.stage_sizes[0] - p.stage_sizes[best];
    Seconds prefix;
    for (std::size_t s = 0; s < best; ++s) prefix += p.op_costs[s];
    p.prefix_time = prefix;
    profiles.push_back(std::move(p));
  }
  return profiles;
}

TEST(DecisionFuzz, InvariantsHoldOnRandomLandscapes) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const auto profiles =
        random_profiles(rng, 50 + static_cast<std::size_t>(rng.uniform_int(0, 450)));
    sim::ClusterConfig cluster;
    cluster.bandwidth = Bandwidth::mbps(rng.uniform(10.0, 2000.0));
    cluster.storage_cores = static_cast<int>(rng.uniform_int(0, 16));
    cluster.compute_cores = static_cast<int>(rng.uniform_int(1, 64));
    const Seconds t_g(rng.uniform(0.01, 50.0));

    const auto result = decide_offloading(profiles, cluster, t_g);

    // Never worse than the baseline, never negative components.
    ASSERT_LE(result.final_cost.predicted_epoch_time().value(),
              result.baseline.predicted_epoch_time().value() + 1e-9);
    ASSERT_GE(result.final_cost.t_net.value(), -1e-12);
    ASSERT_GE(result.final_cost.t_cs.value(), -1e-12);
    ASSERT_GE(result.final_cost.t_cc.value(), -1e-12);
    ASSERT_LE(result.offloaded, result.beneficial_candidates);

    // Offloaded prefixes are exactly each sample's min-size stage.
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const auto prefix = result.plan.prefix(i);
      if (prefix > 0) {
        ASSERT_EQ(prefix, profiles[i].min_stage);
        ASSERT_TRUE(profiles[i].benefits());
      }
      ASSERT_LT(static_cast<std::size_t>(prefix), profiles[i].stage_sizes.size());
    }

    // The independent evaluator agrees with the greedy's running ledger.
    if (cluster.storage_cores > 0) {
      const auto evaluated = evaluate_plan(profiles, result.plan, cluster, t_g);
      ASSERT_NEAR(evaluated.t_net.value(), result.final_cost.t_net.value(),
                  1e-6 * std::max(1.0, evaluated.t_net.value()));
      ASSERT_NEAR(evaluated.t_cs.value(), result.final_cost.t_cs.value(),
                  1e-6 * std::max(1.0, evaluated.t_cs.value()));
    }
  }
}

}  // namespace
}  // namespace sophon::core
