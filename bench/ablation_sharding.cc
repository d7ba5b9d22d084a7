// Ablation A6 — sharded storage clusters and placement skew.
//
// The paper models the storage side as one node; real deployments shard the
// dataset across a cluster whose nodes each contribute preprocessing CPU.
// This bench sweeps cluster width and compares balanced (hashed) placement
// against a skewed one under the shard-aware engine, which budgets each
// node's cores (replica-aware planning at replication 1: every prefix runs on
// its primary), then buys the skew back with replication.
#include "bench_common.h"
#include "core/profiler.h"

using namespace sophon;

int main() {
  bench::print_header("Ablation A6 — sharded storage cluster, shard-aware planning",
                      "(beyond the paper: its storage side is a single node)");

  const auto catalog = bench::openimages_catalog();
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto profiles = core::profile_stage2(catalog, pipe, cm);
  const auto gpu = model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000);

  auto config = bench::paper_config();
  config.cluster.storage_cores = 1;  // per node
  const Seconds batch_time = gpu.batch_time(config.cluster.batch_size);
  const Seconds t_g = core::gpu_epoch_time(catalog.size(), config.cluster.batch_size, batch_time);

  // Skewed placement: 70% of samples on node 0, rest spread evenly.
  auto skewed_map = [&](int nodes) {
    std::vector<std::uint16_t> assignment(catalog.size());
    Rng rng(11);
    for (auto& node : assignment) {
      node = static_cast<std::uint16_t>(
          rng.bernoulli(0.7) ? 0 : rng.uniform_int(0, nodes - 1));
    }
    return storage::ShardMap::explicit_map(std::move(assignment), nodes);
  };

  TextTable table({"nodes (1 core each)", "placement", "offloaded", "epoch time", "traffic",
                   "busiest node CPU"});
  for (const int nodes : {1, 2, 4, 8}) {
    for (const auto& [label, shards] :
         {std::pair{"hashed (balanced)", storage::ShardMap::hashed(catalog.size(), nodes, 5)},
          {"skewed (70% on node 0)", skewed_map(nodes)}}) {
      const auto decision = core::decide_offloading_replicated(
          profiles, storage::ReplicaMap::replicated(shards, 1, 5), config.cluster, t_g);
      const auto stats = sim::simulate_epoch_sharded(
          catalog.size(), sim::plan_flow(catalog, pipe, cm, decision.plan.assignment()), shards,
          config.cluster, batch_time, 42, 0);
      Seconds busiest;
      for (const auto busy : stats.node_cpu_busy) busiest = std::max(busiest, busy);
      table.add_row({strf("%d", nodes), label, strf("%zu", decision.offloaded),
                     strf("%.1f s", stats.totals.epoch_time.value()),
                     bench::gb(stats.totals.traffic), strf("%.1f s", busiest.value())});
    }
  }
  std::printf("%s", table.render().c_str());

  // Replica-aware routing: how much of the skew penalty does replication
  // buy back? (r replicas per sample; prefixes run on the least-loaded
  // holder.)
  std::printf("\nReplication vs skew (8 nodes, 70%% of primaries on node 0):\n");
  TextTable rep({"replication", "offloaded", "epoch time", "traffic"});
  const auto skewed8 = skewed_map(8);
  for (const int r : {1, 2, 3}) {
    const auto replicas = storage::ReplicaMap::replicated(skewed8, r, 5);
    const auto decision =
        core::decide_offloading_replicated(profiles, replicas, config.cluster, t_g);
    const auto stats = sim::simulate_epoch_sharded(
        catalog.size(), sim::plan_flow(catalog, pipe, cm, decision.plan.assignment()),
        decision.execution_nodes, config.cluster, batch_time, 42, 0);
    rep.add_row({strf("%d", r), strf("%zu", decision.offloaded),
                 strf("%.1f s", stats.totals.epoch_time.value()),
                 bench::gb(stats.totals.traffic)});
  }
  std::printf("%s", rep.render().c_str());
  return 0;
}
