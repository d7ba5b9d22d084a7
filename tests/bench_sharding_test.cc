// Unit tests of A6's bench-local sharded storage cluster (bench/sharding_model.h).
#include "sharding_model.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/decision.h"
#include "core/profiler.h"
#include "dataset/catalog.h"
#include "pipeline/pipeline.h"
#include "sim/trainer.h"
#include "util/check.h"

namespace sophon::bench {
namespace {

using core::decide_offloading;
using core::SampleProfile;

// ---- placement ----

TEST(ShardMap, HashedIsBalanced) {
  const auto map = ShardMap::hashed(40000, 4, 42);
  EXPECT_EQ(map.size(), 40000u);
  EXPECT_EQ(map.num_nodes(), 4);
  std::vector<std::size_t> hist(4, 0);
  for (const auto node : map.nodes()) ++hist[node];
  for (const auto count : hist) {
    EXPECT_NEAR(static_cast<double>(count), 10000.0, 300.0);
  }
}

TEST(ShardMap, HashedIsDeterministic) {
  const auto a = ShardMap::hashed(1000, 3, 7);
  const auto b = ShardMap::hashed(1000, 3, 7);
  const auto c = ShardMap::hashed(1000, 3, 8);
  bool differs = false;
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.node_of(i), b.node_of(i));
    if (a.node_of(i) != c.node_of(i)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(ShardMap, ExplicitMapValidated) {
  const auto map = ShardMap::explicit_map({0, 1, 1, 0}, 2);
  EXPECT_EQ(map.node_of(1), 1);
  EXPECT_THROW((void)ShardMap::explicit_map({0, 2}, 2), ContractViolation);
}

TEST(ShardMap, SingleNodeMapsEverythingToZero) {
  const auto map = ShardMap::hashed(100, 1, 1);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(map.node_of(i), 0);
}

TEST(ShardMap, BoundsChecked) {
  const auto map = ShardMap::hashed(10, 2, 1);
  EXPECT_THROW((void)map.node_of(10), ContractViolation);
  EXPECT_THROW((void)ShardMap::hashed(10, 0, 1), ContractViolation);
}

TEST(ReplicaMap, HoldsDistinctNodesPerSample) {
  const auto primary = ShardMap::hashed(500, 6, 1);
  const auto replicas = ReplicaMap::replicated(primary, 3, 7);
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
  const auto primary = ShardMap::hashed(100, 4, 2);
  const auto replicas = ReplicaMap::replicated(primary, 1, 7);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(replicas.replicas_of(i)[0], primary.node_of(i));
  }
}

TEST(ReplicaMap, RejectsImpossibleReplication) {
  const auto primary = ShardMap::hashed(10, 3, 1);
  EXPECT_THROW((void)ReplicaMap::replicated(primary, 4, 7), ContractViolation);
  EXPECT_THROW((void)ReplicaMap::replicated(primary, 0, 7), ContractViolation);
}

// ---- the per-node greedy ----

struct DecisionFixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(4000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  std::vector<SampleProfile> profiles = core::profile_stage2(catalog, pipe, cm);
  sim::ClusterConfig cluster = [] {
    sim::ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(100.0);
    c.storage_cores = 1;  // per node
    return c;
  }();
  Seconds t_g = Seconds(4.0);

  /// 80% of samples primary on node 0 of 4 — heavy skew.
  ShardMap skewed() const {
    std::vector<std::uint16_t> assignment(catalog.size());
    Rng rng(5);
    for (auto& node : assignment) {
      node = static_cast<std::uint16_t>(rng.bernoulli(0.8) ? 0 : rng.uniform_int(1, 3));
    }
    return ShardMap::explicit_map(std::move(assignment), 4);
  }
};

/// The shard-aware plan: the per-node greedy at replication 1, so every
/// prefix runs on the node that owns the sample.
ReplicatedDecisionResult decide_sharded(const std::vector<SampleProfile>& profiles,
                                        const ShardMap& shards, const sim::ClusterConfig& cluster,
                                        Seconds t_g) {
  return decide_offloading_replicated(profiles, ReplicaMap::replicated(shards, 1, 1), cluster,
                                      t_g);
}

TEST(ShardedDecision, SingleNodeMatchesFlatEngine) {
  DecisionFixture f;
  const auto shards = ShardMap::hashed(f.catalog.size(), 1, 1);
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
  DecisionFixture f;
  const auto one =
      decide_sharded(f.profiles, ShardMap::hashed(f.catalog.size(), 1, 1), f.cluster, f.t_g);
  const auto four =
      decide_sharded(f.profiles, ShardMap::hashed(f.catalog.size(), 4, 1), f.cluster, f.t_g);
  EXPECT_GT(four.offloaded, one.offloaded);
  EXPECT_LT(four.final_cost.t_net.value(), one.final_cost.t_net.value());
}

TEST(ShardedDecision, NodeCpuAccountingConsistent) {
  DecisionFixture f;
  const auto shards = ShardMap::hashed(f.catalog.size(), 4, 9);
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
  DecisionFixture f;
  std::vector<std::uint16_t> assignment(f.catalog.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<std::uint16_t>(i % 10 == 0 ? 1 + (i / 10) % 3 : 0);
  }
  const auto shards = ShardMap::explicit_map(std::move(assignment), 4);
  const auto result = decide_sharded(f.profiles, shards, f.cluster, f.t_g);
  ASSERT_GT(result.offloaded, 0u);
  std::size_t off_cold = 0;
  for (std::size_t i = 0; i < f.profiles.size(); ++i) {
    if (result.plan.prefix(i) > 0 && shards.node_of(i) != 0) ++off_cold;
  }
  EXPECT_GT(off_cold, 0u);
  // Balanced placement must do at least as well as the skewed one.
  const auto balanced =
      decide_sharded(f.profiles, ShardMap::hashed(f.catalog.size(), 4, 2), f.cluster, f.t_g);
  EXPECT_LE(balanced.final_cost.predicted_epoch_time().value(),
            result.final_cost.predicted_epoch_time().value() + 1e-9);
}

TEST(ShardedDecision, NeverWorsensPredictedEpochTime) {
  DecisionFixture f;
  for (const int nodes : {1, 2, 4, 8}) {
    const auto shards = ShardMap::hashed(f.catalog.size(), nodes, 3);
    const auto result = decide_sharded(f.profiles, shards, f.cluster, f.t_g);
    EXPECT_LE(result.final_cost.predicted_epoch_time().value(),
              result.baseline.predicted_epoch_time().value() + 1e-9)
        << nodes;
  }
}

TEST(ShardedDecision, ZeroPerNodeCoresOffloadsNothing) {
  DecisionFixture f;
  f.cluster.storage_cores = 0;
  const auto shards = ShardMap::hashed(f.catalog.size(), 4, 1);
  const auto result = decide_sharded(f.profiles, shards, f.cluster, f.t_g);
  EXPECT_EQ(result.offloaded, 0u);
}

TEST(ShardedDecision, RejectsMismatchedMap) {
  DecisionFixture f;
  const auto shards = ShardMap::hashed(10, 2, 1);
  EXPECT_THROW((void)decide_sharded(f.profiles, shards, f.cluster, f.t_g), ContractViolation);
}

TEST(ReplicatedDecision, ReplicationNeutralisesSkew) {
  DecisionFixture f;
  // Slow storage cores so the hot node saturates well before the candidate
  // list runs out — the regime where replica choice matters.
  f.cluster.storage_core_speed = 0.3;
  const auto shards = f.skewed();
  const auto r1 = decide_offloading_replicated(f.profiles, ReplicaMap::replicated(shards, 1, 7),
                                               f.cluster, f.t_g);
  const auto r3 = decide_offloading_replicated(f.profiles, ReplicaMap::replicated(shards, 3, 7),
                                               f.cluster, f.t_g);
  // With three replica choices the engine must offload strictly more and
  // finish faster than when pinned to the skewed primary.
  EXPECT_GT(r3.offloaded, r1.offloaded);
  EXPECT_LT(r3.final_cost.predicted_epoch_time().value(),
            r1.final_cost.predicted_epoch_time().value());
}

TEST(ReplicatedDecision, ExecutionNodesAreValidReplicaHolders) {
  DecisionFixture f;
  const auto shards = f.skewed();
  const auto replicas = ReplicaMap::replicated(shards, 2, 7);
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
  DecisionFixture f;
  const auto shards = f.skewed();
  const auto replicas = ReplicaMap::replicated(shards, 3, 7);
  const auto result = decide_offloading_replicated(f.profiles, replicas, f.cluster, f.t_g);
  ASSERT_GT(result.offloaded, 0u);

  const auto flow = sim::plan_flow(f.catalog, f.pipe, f.cm, result.plan.assignment());
  const auto stats = simulate_epoch_sharded(f.catalog.size(), flow, result.execution_nodes,
                                            f.cluster, Seconds::millis(85.0), 42, 0);
  ASSERT_EQ(stats.node_cpu_busy.size(), result.node_cpu.size());
  for (std::size_t n = 0; n < result.node_cpu.size(); ++n) {
    EXPECT_NEAR(stats.node_cpu_busy[n].value(), result.node_cpu[n].value(), 1e-6);
  }
}

// Two tiers of equal efficiency (mirrors core_decision_test's fixture): the
// greedy takes the high tier, then the low tier, each in ascending index
// order, so where it stops inside the low tier the offloaded samples are
// exactly that tier's first ones.
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
                                 const core::OffloadPlan& plan) {
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

TEST(ReplicatedDecision, EqualEfficienciesOffloadInAscendingIndexOrder) {
  const auto profiles = tied_profiles();
  sim::ClusterConfig cluster;
  cluster.storage_cores = 1;
  cluster.bandwidth = Bandwidth::mbps(600.0);
  const Seconds t_g = Seconds::millis(1.0);

  const auto one_node = ShardMap::explicit_map(std::vector<std::uint16_t>(profiles.size(), 0), 1);
  const auto replicas = ReplicaMap::replicated(one_node, 1, 3);
  expect_tiers_in_index_order(
      profiles, decide_offloading_replicated(profiles, replicas, cluster, t_g).plan);
}

// Synthetic random profiles (mirrors core_decision_fuzz_test's generator).
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

TEST(DecisionFuzz, ShardedEngineInvariantsOnRandomLandscapes) {
  Rng rng(4048);
  for (int trial = 0; trial < 15; ++trial) {
    const auto profiles =
        random_profiles(rng, 100 + static_cast<std::size_t>(rng.uniform_int(0, 200)));
    const int nodes = static_cast<int>(rng.uniform_int(1, 8));
    const auto shards =
        ShardMap::hashed(profiles.size(), nodes, static_cast<std::uint64_t>(trial));
    sim::ClusterConfig cluster;
    cluster.bandwidth = Bandwidth::mbps(rng.uniform(10.0, 500.0));
    cluster.storage_cores = static_cast<int>(rng.uniform_int(0, 4));
    const Seconds t_g(rng.uniform(0.01, 10.0));

    const auto result =
        decide_offloading_replicated(profiles, ReplicaMap::replicated(shards, 1, 1), cluster, t_g);
    ASSERT_LE(result.final_cost.predicted_epoch_time().value(),
              result.baseline.predicted_epoch_time().value() + 1e-9);

    // Node ledger equals the recomputation from the plan.
    std::vector<Seconds> recomputed(static_cast<std::size_t>(nodes));
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      if (result.plan.prefix(i) > 0) {
        recomputed[static_cast<std::size_t>(shards.node_of(i))] += profiles[i].prefix_time;
      }
    }
    for (int n = 0; n < nodes; ++n) {
      ASSERT_NEAR(result.node_cpu[static_cast<std::size_t>(n)].value(),
                  recomputed[static_cast<std::size_t>(n)].value(), 1e-9);
    }
  }
}

// ---- the sharded epoch ----

struct EpochFixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(2000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  sim::ClusterConfig cluster = [] {
    sim::ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(200.0);
    c.batch_size = 64;
    return c;
  }();
  Seconds batch_time = Seconds::millis(25.0);

  // Uniform assignments by prefix length, kept alive for the flows.
  std::map<std::uint8_t, std::vector<std::uint8_t>> uniform;

  sim::FlowFn flows(std::uint8_t prefix) {
    const auto& assignment = uniform.try_emplace(prefix, catalog.size(), prefix).first->second;
    return sim::plan_flow(catalog, pipe, cm, assignment);
  }
};

TEST(ShardedTrainer, SingleNodeMatchesFlatSimulator) {
  EpochFixture f;
  const auto shards = ShardMap::hashed(f.catalog.size(), 1, 1);
  const auto sharded = simulate_epoch_sharded(f.catalog.size(), f.flows(2), shards, f.cluster,
                                              f.batch_time, 42, 0);
  const auto flat =
      sim::simulate_epoch_flows(f.catalog.size(), f.flows(2), f.cluster, f.batch_time, 42, 0);
  EXPECT_DOUBLE_EQ(sharded.totals.epoch_time.value(), flat.epoch_time.value());
  EXPECT_EQ(sharded.totals.traffic, flat.traffic);
  EXPECT_DOUBLE_EQ(sharded.totals.storage_cpu_busy.value(), flat.storage_cpu_busy.value());
}

TEST(ShardedTrainer, PerNodeBusyTimesSumToTotal) {
  EpochFixture f;
  const auto shards = ShardMap::hashed(f.catalog.size(), 4, 9);
  const auto stats = simulate_epoch_sharded(f.catalog.size(), f.flows(2), shards, f.cluster,
                                            f.batch_time, 42, 0);
  ASSERT_EQ(stats.node_cpu_busy.size(), 4u);
  Seconds sum;
  for (const auto busy : stats.node_cpu_busy) sum += busy;
  EXPECT_NEAR(sum.value(), stats.totals.storage_cpu_busy.value(), 1e-9);
  for (const auto busy : stats.node_cpu_busy) EXPECT_GT(busy.value(), 0.0);
}

TEST(ShardedTrainer, MoreNodesNeverSlower) {
  // Same per-node core budget, more nodes → strictly more CPU capacity.
  EpochFixture f;
  f.cluster.storage_cores = 1;
  const auto one =
      simulate_epoch_sharded(f.catalog.size(), f.flows(2), ShardMap::hashed(f.catalog.size(), 1, 1),
                             f.cluster, f.batch_time, 42, 0);
  const auto four =
      simulate_epoch_sharded(f.catalog.size(), f.flows(2), ShardMap::hashed(f.catalog.size(), 4, 1),
                             f.cluster, f.batch_time, 42, 0);
  EXPECT_LE(four.totals.epoch_time.value(), one.totals.epoch_time.value() + 1e-9);
}

TEST(ShardedTrainer, SkewedMapConcentratesLoad) {
  EpochFixture f;
  // All samples on node 0 of 4: nodes 1-3 stay idle.
  std::vector<std::uint16_t> assignment(f.catalog.size(), 0);
  const auto shards = ShardMap::explicit_map(std::move(assignment), 4);
  const auto stats = simulate_epoch_sharded(f.catalog.size(), f.flows(2), shards, f.cluster,
                                            f.batch_time, 42, 0);
  EXPECT_GT(stats.node_cpu_busy[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(stats.node_cpu_busy[1].value(), 0.0);
  EXPECT_DOUBLE_EQ(stats.node_cpu_busy[2].value(), 0.0);
  EXPECT_DOUBLE_EQ(stats.node_cpu_busy[3].value(), 0.0);
}

TEST(ShardedTrainer, SkewHurtsUnderTightCores) {
  EpochFixture f;
  f.cluster.storage_cores = 1;
  const auto balanced =
      simulate_epoch_sharded(f.catalog.size(), f.flows(2), ShardMap::hashed(f.catalog.size(), 4, 1),
                             f.cluster, f.batch_time, 42, 0);
  std::vector<std::uint16_t> hot(f.catalog.size(), 0);
  const auto skewed = simulate_epoch_sharded(f.catalog.size(), f.flows(2),
                                             ShardMap::explicit_map(std::move(hot), 4), f.cluster,
                                             f.batch_time, 42, 0);
  EXPECT_GT(skewed.totals.epoch_time.value(), balanced.totals.epoch_time.value());
}

TEST(ShardedTrainer, RejectsMismatchedShardMap) {
  EpochFixture f;
  const auto shards = ShardMap::hashed(10, 2, 1);
  EXPECT_THROW((void)simulate_epoch_sharded(f.catalog.size(), f.flows(0), shards, f.cluster,
                                            f.batch_time, 42, 0),
               ContractViolation);
}

}  // namespace
}  // namespace sophon::bench
