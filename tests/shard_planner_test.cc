#include "shard/planner.h"

#include <gtest/gtest.h>

#include <vector>

#include "shard/format.h"

namespace sophon::shard {
namespace {

/// A profile from explicit per-op costs (seconds) and per-stage wire sizes
/// (bytes, length = ops + 1), with the derived fields the profiler would
/// compute.
core::SampleProfile make_profile(std::uint32_t index, const std::vector<double>& costs,
                                 const std::vector<std::int64_t>& sizes) {
  core::SampleProfile p;
  p.sample_index = index;
  for (const double c : costs) p.op_costs.emplace_back(c);
  for (const auto s : sizes) p.stage_sizes.emplace_back(s);
  std::size_t best = 0;
  for (std::size_t s = 1; s < sizes.size(); ++s) {
    if (sizes[s] < sizes[best]) best = s;
  }
  p.min_stage = static_cast<std::uint32_t>(best);
  p.reduction = Bytes(sizes[0] - sizes[best]);
  for (std::size_t s = 0; s < best; ++s) p.prefix_time += p.op_costs[s];
  return p;
}

TEST(MaterializationCandidates, PicksBestEfficiencyStage) {
  // Stage 1 saves 1 s for 500 B; stage 2 saves 2 s for 100 B — far better
  // seconds-per-byte, so the deeper stage wins.
  const auto p = make_profile(0, {1.0, 1.0}, {1000, 500, 100});
  core::OffloadPlan plan(1);
  plan.set(0, 2);
  const auto candidates = materialization_candidates({p}, plan, /*deterministic_limit=*/2);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].stage, 2);
  EXPECT_DOUBLE_EQ(candidates[0].cpu_saved.value(), 2.0);
  EXPECT_EQ(candidates[0].bytes.count(),
            100 + static_cast<std::int64_t>(kIndexEntryBytes));
}

TEST(MaterializationCandidates, ClampedToDeterministicLimit) {
  const auto p = make_profile(0, {1.0, 1.0}, {1000, 500, 100});
  core::OffloadPlan plan(1);
  plan.set(0, 2);
  const auto candidates = materialization_candidates({p}, plan, /*deterministic_limit=*/1);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].stage, 1);
  EXPECT_DOUBLE_EQ(candidates[0].cpu_saved.value(), 1.0);
}

TEST(MaterializationCandidates, AnticipatesBeneficialUnoffloadedSamples) {
  // In no offload plan, but benefits(): we budget for its min-size stage.
  const auto p = make_profile(0, {2.0}, {1000, 400});
  const core::OffloadPlan no_offload(1);
  const auto candidates = materialization_candidates({p}, no_offload, 1);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].stage, 1);
}

TEST(MaterializationCandidates, SkipsSamplesWithNothingToSave) {
  // Grows at every stage: benefits() is false and the plan ignores it.
  const auto p = make_profile(0, {1.0}, {100, 900});
  const core::OffloadPlan no_offload(1);
  EXPECT_TRUE(materialization_candidates({p}, no_offload, 1).empty());
}

TEST(PlanMaterialization, ZeroBudgetSelectsNothing) {
  const auto p = make_profile(0, {1.0}, {1000, 100});
  core::OffloadPlan plan(1);
  plan.set(0, 1);
  const auto mat = plan_materialization({p}, plan, 1, Bytes(0));
  EXPECT_EQ(mat.materialized, 0u);
  EXPECT_EQ(mat.total_bytes.count(), 0);
}

TEST(PlanMaterialization, GreedyStopsAtFirstOverflow) {
  // Efficiency order: p0 (10 s / ~1 KiB) > p1 (10 s / ~100 KiB) > p2
  // (0.1 s / ~1 KiB). A budget that fits p0 and p2 but not p1 must stop at
  // p1 — the stop-at-first-overflow rule keeps every selection a prefix of
  // one order, which is what makes savings monotone in the budget.
  const std::vector<core::SampleProfile> profiles = {
      make_profile(0, {10.0}, {10000, 1000}),
      make_profile(1, {10.0}, {200000, 100000}),
      make_profile(2, {0.1}, {10000, 1000}),
  };
  core::OffloadPlan plan(3);
  for (std::uint32_t i = 0; i < 3; ++i) plan.set(i, 1);
  const auto mat = plan_materialization(profiles, plan, 1, Bytes(4096));
  EXPECT_EQ(mat.materialized, 1u);
  EXPECT_EQ(mat.stage_of(0), 1);
  EXPECT_EQ(mat.stage_of(1), 0);
  EXPECT_EQ(mat.stage_of(2), 0);
}

TEST(PlanMaterialization, LargerBudgetSelectsSuperset) {
  std::vector<core::SampleProfile> profiles;
  for (std::uint32_t i = 0; i < 8; ++i) {
    profiles.push_back(
        make_profile(i, {0.5 + 0.25 * i}, {20000 + 1000 * i, 2000 + 500 * i}));
  }
  core::OffloadPlan plan(8);
  for (std::uint32_t i = 0; i < 8; ++i) plan.set(i, 1);

  std::vector<std::uint8_t> previous(8, 0);
  Seconds previous_saved;
  for (const std::int64_t budget : {0, 3000, 9000, 15000, 30000, 1 << 20}) {
    const auto mat = plan_materialization(profiles, plan, 1, Bytes(budget));
    EXPECT_LE(mat.total_bytes.count(), budget);
    EXPECT_GE(mat.cpu_saved.value(), previous_saved.value());
    for (std::size_t i = 0; i < 8; ++i) {
      if (previous[i] != 0) {
        EXPECT_EQ(mat.stage_of(i), previous[i]) << "budget " << budget << " dropped sample " << i;
      }
    }
    previous = mat.stage;
    previous_saved = mat.cpu_saved;
  }
}

TEST(PlanMaterialization, AccountsHeaderOnce) {
  const auto p = make_profile(0, {1.0}, {1000, 100});
  core::OffloadPlan plan(1);
  plan.set(0, 1);
  const auto entry_bytes = 100 + static_cast<std::int64_t>(kIndexEntryBytes);
  // Budget covering the entry but not header + entry: nothing fits.
  const auto tight = plan_materialization({p}, plan, 1, Bytes(entry_bytes));
  EXPECT_EQ(tight.materialized, 0u);
  const auto exact = plan_materialization(
      {p}, plan, 1, Bytes(entry_bytes + static_cast<std::int64_t>(kHeaderBytes)));
  EXPECT_EQ(exact.materialized, 1u);
  EXPECT_EQ(exact.total_bytes.count(), entry_bytes + static_cast<std::int64_t>(kHeaderBytes));
}

TEST(AdjustedProfiles, MaterializedSamplesRankFirstOnRedecide) {
  // Two equally-shaped samples; materialise only #0. Its prefix collapses to
  // the near-zero shard-read cost, so its offloading efficiency (bytes saved
  // per storage-CPU-second) must now dominate #1's — the re-rank picks
  // materialised samples first instead of dropping them to the back.
  const std::vector<core::SampleProfile> profiles = {
      make_profile(0, {2.0}, {100000, 10000}),
      make_profile(1, {2.0}, {100000, 10000}),
  };
  core::OffloadPlan plan(2);
  plan.set(0, 1);
  plan.set(1, 1);
  const auto mat = plan_materialization(profiles, plan, 1, Bytes(10240 + 72));
  ASSERT_EQ(mat.materialized, 1u);
  ASSERT_EQ(mat.stage_of(0), 1);

  const auto adjusted = adjusted_profiles(profiles, mat);
  EXPECT_GT(adjusted[0].prefix_time.value(), 0.0);  // not free: the shard read
  EXPECT_LT(adjusted[0].prefix_time.value(), 1e-3);
  EXPECT_GT(adjusted[0].efficiency(), adjusted[1].efficiency());
  // The untouched sample is bit-for-bit the original.
  EXPECT_EQ(adjusted[1].prefix_time.value(), profiles[1].prefix_time.value());
  EXPECT_EQ(adjusted[1].op_costs[0].value(), profiles[1].op_costs[0].value());
  // Wire sizes never change — materialisation moves CPU, not bytes.
  EXPECT_EQ(adjusted[0].stage_sizes[1].count(), profiles[0].stage_sizes[1].count());
}

}  // namespace
}  // namespace sophon::shard
