#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/trainer.h"
#include "util/check.h"

namespace sophon::sim {
namespace {

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(2000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  ClusterConfig cluster = [] {
    ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(200.0);
    c.batch_size = 64;
    return c;
  }();
  Seconds batch_time = Seconds::millis(25.0);

  // Uniform assignments by prefix length, kept alive for the flows.
  std::map<std::uint8_t, std::vector<std::uint8_t>> uniform;

  std::function<SampleFlow(std::size_t)> flows(std::uint8_t prefix) {
    const auto& assignment = uniform.try_emplace(prefix, catalog.size(), prefix).first->second;
    return plan_flow(catalog, pipe, cm, assignment);
  }
};

TEST(ShardedTrainer, SingleNodeMatchesFlatSimulator) {
  Fixture f;
  const auto shards = storage::ShardMap::hashed(f.catalog.size(), 1, 1);
  const auto sharded = simulate_epoch_sharded(f.catalog.size(), f.flows(2), shards, f.cluster,
                                              f.batch_time, 42, 0);
  const auto flat = simulate_epoch_flows(f.catalog.size(), f.flows(2), f.cluster, f.batch_time,
                                         42, 0);
  EXPECT_DOUBLE_EQ(sharded.totals.epoch_time.value(), flat.epoch_time.value());
  EXPECT_EQ(sharded.totals.traffic, flat.traffic);
  EXPECT_DOUBLE_EQ(sharded.totals.storage_cpu_busy.value(), flat.storage_cpu_busy.value());
}

TEST(ShardedTrainer, PerNodeBusyTimesSumToTotal) {
  Fixture f;
  const auto shards = storage::ShardMap::hashed(f.catalog.size(), 4, 9);
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
  Fixture f;
  f.cluster.storage_cores = 1;
  const auto one = simulate_epoch_sharded(f.catalog.size(), f.flows(2),
                                          storage::ShardMap::hashed(f.catalog.size(), 1, 1),
                                          f.cluster, f.batch_time, 42, 0);
  const auto four = simulate_epoch_sharded(f.catalog.size(), f.flows(2),
                                           storage::ShardMap::hashed(f.catalog.size(), 4, 1),
                                           f.cluster, f.batch_time, 42, 0);
  EXPECT_LE(four.totals.epoch_time.value(), one.totals.epoch_time.value() + 1e-9);
}

TEST(ShardedTrainer, SkewedMapConcentratesLoad) {
  Fixture f;
  // All samples on node 0 of 4: nodes 1-3 stay idle.
  std::vector<std::uint16_t> assignment(f.catalog.size(), 0);
  const auto shards = storage::ShardMap::explicit_map(std::move(assignment), 4);
  const auto stats = simulate_epoch_sharded(f.catalog.size(), f.flows(2), shards, f.cluster,
                                            f.batch_time, 42, 0);
  EXPECT_GT(stats.node_cpu_busy[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(stats.node_cpu_busy[1].value(), 0.0);
  EXPECT_DOUBLE_EQ(stats.node_cpu_busy[2].value(), 0.0);
  EXPECT_DOUBLE_EQ(stats.node_cpu_busy[3].value(), 0.0);
}

TEST(ShardedTrainer, SkewHurtsUnderTightCores) {
  Fixture f;
  f.cluster.storage_cores = 1;
  const auto balanced = simulate_epoch_sharded(f.catalog.size(), f.flows(2),
                                               storage::ShardMap::hashed(f.catalog.size(), 4, 1),
                                               f.cluster, f.batch_time, 42, 0);
  std::vector<std::uint16_t> hot(f.catalog.size(), 0);
  const auto skewed = simulate_epoch_sharded(f.catalog.size(), f.flows(2),
                                             storage::ShardMap::explicit_map(std::move(hot), 4),
                                             f.cluster, f.batch_time, 42, 0);
  EXPECT_GT(skewed.totals.epoch_time.value(), balanced.totals.epoch_time.value());
}

TEST(ShardedTrainer, RejectsMismatchedShardMap) {
  Fixture f;
  const auto shards = storage::ShardMap::hashed(10, 2, 1);
  EXPECT_THROW((void)simulate_epoch_sharded(f.catalog.size(), f.flows(0), shards, f.cluster,
                                            f.batch_time, 42, 0),
               ContractViolation);
}

}  // namespace
}  // namespace sophon::sim
