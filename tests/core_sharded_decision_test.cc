#include <gtest/gtest.h>

#include "core/decision.h"
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
    c.storage_cores = 1;  // per node
    return c;
  }();
  Seconds t_g = Seconds(4.0);
};

/// The shard-aware plan: the per-node greedy at replication 1, so every
/// prefix runs on the node that owns the sample.
ReplicatedDecisionResult decide_sharded(const std::vector<SampleProfile>& profiles,
                                        const storage::ShardMap& shards,
                                        const sim::ClusterConfig& cluster, Seconds t_g) {
  return decide_offloading_replicated(profiles, storage::ReplicaMap::replicated(shards, 1, 1),
                                      cluster, t_g);
}

TEST(ShardedDecision, SingleNodeMatchesFlatEngine) {
  Fixture f;
  const auto shards = storage::ShardMap::hashed(f.catalog.size(), 1, 1);
  const auto sharded = decide_sharded(f.profiles, shards, f.cluster, f.t_g);
  const auto flat = decide_offloading(f.profiles, f.cluster, f.t_g);
  // The per-node engine's skip rule is slightly more permissive than the
  // paper's hard stop, so it may offload marginally more — but never less,
  // and the cost vectors must agree closely.
  EXPECT_GE(sharded.offloaded, flat.offloaded);
  EXPECT_NEAR(sharded.final_cost.t_net.value(), flat.final_cost.t_net.value(),
              0.05 * flat.final_cost.t_net.value());
}

TEST(ShardedDecision, MoreNodesOffloadMore) {
  Fixture f;
  const auto one = decide_sharded(
      f.profiles, storage::ShardMap::hashed(f.catalog.size(), 1, 1), f.cluster, f.t_g);
  const auto four = decide_sharded(
      f.profiles, storage::ShardMap::hashed(f.catalog.size(), 4, 1), f.cluster, f.t_g);
  EXPECT_GT(four.offloaded, one.offloaded);
  EXPECT_LT(four.final_cost.t_net.value(), one.final_cost.t_net.value());
}

TEST(ShardedDecision, NodeCpuAccountingConsistent) {
  Fixture f;
  const auto shards = storage::ShardMap::hashed(f.catalog.size(), 4, 9);
  const auto result = decide_sharded(f.profiles, shards, f.cluster, f.t_g);
  std::vector<Seconds> recomputed(4);
  for (std::size_t i = 0; i < f.profiles.size(); ++i) {
    if (result.plan.prefix(i) > 0) {
      recomputed[static_cast<std::size_t>(shards.node_of(i))] += f.profiles[i].prefix_time;
    }
  }
  ASSERT_EQ(result.node_cpu.size(), 4u);
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_NEAR(result.node_cpu[n].value(), recomputed[n].value(), 1e-9);
  }
  // t_cs is governed by the busiest node.
  Seconds worst;
  for (const auto busy : result.node_cpu) worst = std::max(worst, busy);
  EXPECT_NEAR(result.final_cost.t_cs.value(),
              worst.value() / (f.cluster.storage_cores * f.cluster.storage_core_speed), 1e-9);
}

TEST(ShardedDecision, SkewedMapUsesColdNodes) {
  // 90% of samples on node 0; the engine must keep offloading via nodes
  // 1..3 after node 0 saturates.
  Fixture f;
  std::vector<std::uint16_t> assignment(f.catalog.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<std::uint16_t>(i % 10 == 0 ? 1 + (i / 10) % 3 : 0);
  }
  const auto shards = storage::ShardMap::explicit_map(std::move(assignment), 4);
  const auto result = decide_sharded(f.profiles, shards, f.cluster, f.t_g);
  ASSERT_GT(result.offloaded, 0u);
  std::size_t off_cold = 0;
  for (std::size_t i = 0; i < f.profiles.size(); ++i) {
    if (result.plan.prefix(i) > 0 && shards.node_of(i) != 0) ++off_cold;
  }
  EXPECT_GT(off_cold, 0u);
  // Balanced placement must do at least as well as the skewed one.
  const auto balanced = decide_sharded(
      f.profiles, storage::ShardMap::hashed(f.catalog.size(), 4, 2), f.cluster, f.t_g);
  EXPECT_LE(balanced.final_cost.predicted_epoch_time().value(),
            result.final_cost.predicted_epoch_time().value() + 1e-9);
}

TEST(ShardedDecision, NeverWorsensPredictedEpochTime) {
  Fixture f;
  for (const int nodes : {1, 2, 4, 8}) {
    const auto shards = storage::ShardMap::hashed(f.catalog.size(), nodes, 3);
    const auto result = decide_sharded(f.profiles, shards, f.cluster, f.t_g);
    EXPECT_LE(result.final_cost.predicted_epoch_time().value(),
              result.baseline.predicted_epoch_time().value() + 1e-9)
        << nodes;
  }
}

TEST(ShardedDecision, ZeroPerNodeCoresOffloadsNothing) {
  Fixture f;
  f.cluster.storage_cores = 0;
  const auto shards = storage::ShardMap::hashed(f.catalog.size(), 4, 1);
  const auto result = decide_sharded(f.profiles, shards, f.cluster, f.t_g);
  EXPECT_EQ(result.offloaded, 0u);
}

TEST(ShardedDecision, RejectsMismatchedMap) {
  Fixture f;
  const auto shards = storage::ShardMap::hashed(10, 2, 1);
  EXPECT_THROW((void)decide_sharded(f.profiles, shards, f.cluster, f.t_g),
               ContractViolation);
}

}  // namespace
}  // namespace sophon::core
