#include <gtest/gtest.h>

#include "core/decision.h"
#include "core/profiler.h"
#include "dataset/catalog.h"
#include "pipeline/pipeline.h"
#include "sim/trainer.h"
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
    c.storage_cores = 1;
    return c;
  }();
  Seconds t_g = Seconds(4.0);

  /// 80% of samples primary on node 0 of 4 — heavy skew.
  storage::ShardMap skewed() const {
    std::vector<std::uint16_t> assignment(catalog.size());
    Rng rng(5);
    for (auto& node : assignment) {
      node = static_cast<std::uint16_t>(rng.bernoulli(0.8) ? 0 : rng.uniform_int(1, 3));
    }
    return storage::ShardMap::explicit_map(std::move(assignment), 4);
  }
};

TEST(ReplicaMap, HoldsDistinctNodesPerSample) {
  const auto primary = storage::ShardMap::hashed(500, 6, 1);
  const auto replicas = storage::ReplicaMap::replicated(primary, 3, 7);
  EXPECT_EQ(replicas.size(), 500u);
  EXPECT_EQ(replicas.replication(), 3);
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const auto holders = replicas.replicas_of(i);
    ASSERT_EQ(holders.size(), 3u);
    EXPECT_EQ(holders[0], primary.node_of(i));  // primary first
    EXPECT_NE(holders[0], holders[1]);
    EXPECT_NE(holders[0], holders[2]);
    EXPECT_NE(holders[1], holders[2]);
    for (const auto node : holders) EXPECT_LT(node, 6);
  }
}

TEST(ReplicaMap, ReplicationOneIsJustThePrimary) {
  const auto primary = storage::ShardMap::hashed(100, 4, 2);
  const auto replicas = storage::ReplicaMap::replicated(primary, 1, 7);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(replicas.replicas_of(i)[0], primary.node_of(i));
  }
}

TEST(ReplicaMap, RejectsImpossibleReplication) {
  const auto primary = storage::ShardMap::hashed(10, 3, 1);
  EXPECT_THROW((void)storage::ReplicaMap::replicated(primary, 4, 7), ContractViolation);
  EXPECT_THROW((void)storage::ReplicaMap::replicated(primary, 0, 7), ContractViolation);
}

TEST(ReplicatedDecision, ReplicationNeutralisesSkew) {
  Fixture f;
  // Slow storage cores so the hot node saturates well before the candidate
  // list runs out — the regime where replica choice matters.
  f.cluster.storage_core_speed = 0.3;
  const auto shards = f.skewed();
  const auto r1 = decide_offloading_replicated(
      f.profiles, storage::ReplicaMap::replicated(shards, 1, 7), f.cluster, f.t_g);
  const auto r3 = decide_offloading_replicated(
      f.profiles, storage::ReplicaMap::replicated(shards, 3, 7), f.cluster, f.t_g);
  // With three replica choices the engine must offload strictly more and
  // finish faster than when pinned to the skewed primary.
  EXPECT_GT(r3.offloaded, r1.offloaded);
  EXPECT_LT(r3.final_cost.predicted_epoch_time().value(),
            r1.final_cost.predicted_epoch_time().value());
}

TEST(ReplicatedDecision, ExecutionNodesAreValidReplicaHolders) {
  Fixture f;
  const auto shards = f.skewed();
  const auto replicas = storage::ReplicaMap::replicated(shards, 2, 7);
  const auto result = decide_offloading_replicated(f.profiles, replicas, f.cluster, f.t_g);
  for (std::size_t i = 0; i < f.profiles.size(); ++i) {
    if (result.plan.prefix(i) == 0) continue;
    const auto chosen = result.execution_nodes.node_of(i);
    bool is_holder = false;
    for (const auto node : replicas.replicas_of(i)) {
      if (node == chosen) is_holder = true;
    }
    EXPECT_TRUE(is_holder) << "sample " << i << " routed to non-holder " << chosen;
  }
}

TEST(ReplicatedDecision, SimulatorAgreesWithPrediction) {
  // Route the replicated plan through the sharded DES using the execution
  // map; the simulated per-node busy time must match the engine's ledger.
  Fixture f;
  const auto shards = f.skewed();
  const auto replicas = storage::ReplicaMap::replicated(shards, 3, 7);
  const auto result = decide_offloading_replicated(f.profiles, replicas, f.cluster, f.t_g);
  ASSERT_GT(result.offloaded, 0u);

  const auto flow = sim::plan_flow(f.catalog, f.pipe, f.cm, result.plan.assignment());
  const auto stats = sim::simulate_epoch_sharded(f.catalog.size(), flow, result.execution_nodes,
                                                 f.cluster, Seconds::millis(85.0), 42, 0);
  ASSERT_EQ(stats.node_cpu_busy.size(), result.node_cpu.size());
  for (std::size_t n = 0; n < result.node_cpu.size(); ++n) {
    EXPECT_NEAR(stats.node_cpu_busy[n].value(), result.node_cpu[n].value(), 1e-6);
  }
}

}  // namespace
}  // namespace sophon::core
