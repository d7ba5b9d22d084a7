// Ablation A6 — sharded storage clusters and placement skew.
//
// The paper models the storage side as one node; real deployments shard the
// dataset across a cluster whose nodes each contribute preprocessing CPU.
// This bench sweeps cluster width and compares balanced (hashed) placement
// against a skewed one under the shard-aware engine, which budgets each
// node's cores (replica-aware planning at replication 1: every prefix runs on
// its primary), then buys the skew back with replication. The cluster is
// bench-local code (sharding_model.h); the bench self-checks it on its own
// data and prints "verified:" only when every check holds.
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/profiler.h"
#include "sharding_model.h"

using namespace sophon;
using bench::ReplicaMap;
using bench::ShardMap;

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
    return ShardMap::explicit_map(std::move(assignment), nodes);
  };

  // Self-checks over every planned and simulated row: per-node busy times
  // sum to the total, and each node's simulated busy time is the greedy's
  // ledger for it (storage cores run at speed 1 here).
  bool sums_ok = true;
  bool ledger_ok = true;
  auto check_row = [&](const bench::ReplicatedDecisionResult& decision,
                       const bench::ShardedEpochStats& stats) {
    Seconds sum;
    for (const auto busy : stats.node_cpu_busy) sum += busy;
    sums_ok = sums_ok && std::abs(sum.value() - stats.totals.storage_cpu_busy.value()) <= 1e-9;
    ledger_ok = ledger_ok && stats.node_cpu_busy.size() == decision.node_cpu.size();
    for (std::size_t n = 0; ledger_ok && n < decision.node_cpu.size(); ++n) {
      ledger_ok = std::abs(stats.node_cpu_busy[n].value() - decision.node_cpu[n].value()) <= 1e-6;
    }
  };
  bool single_node_ok = true;

  TextTable table({"nodes (1 core each)", "placement", "offloaded", "epoch time", "traffic",
                   "busiest node CPU"});
  for (const int nodes : {1, 2, 4, 8}) {
    for (const auto& [label, shards] :
         {std::pair{"hashed (balanced)", ShardMap::hashed(catalog.size(), nodes, 5)},
          {"skewed (70% on node 0)", skewed_map(nodes)}}) {
      const auto decision = bench::decide_offloading_replicated(
          profiles, ReplicaMap::replicated(shards, 1, 5), config.cluster, t_g);
      const auto flow = sim::plan_flow(catalog, pipe, cm, decision.plan.assignment());
      const auto stats = bench::simulate_epoch_sharded(catalog.size(), flow, shards,
                                                       config.cluster, batch_time, 42, 0);
      check_row(decision, stats);
      if (nodes == 1) {
        // One node is the flat simulator, exactly.
        const auto flat =
            sim::simulate_epoch_flows(catalog.size(), flow, config.cluster, batch_time, 42, 0);
        single_node_ok = single_node_ok &&
                         stats.totals.epoch_time.value() == flat.epoch_time.value() &&
                         stats.totals.traffic == flat.traffic &&
                         stats.totals.storage_cpu_busy.value() == flat.storage_cpu_busy.value();
      }
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
  std::vector<std::size_t> offloaded_by_r;
  bool holders_ok = true;
  for (const int r : {1, 2, 3}) {
    const auto replicas = ReplicaMap::replicated(skewed8, r, 5);
    const auto decision =
        bench::decide_offloading_replicated(profiles, replicas, config.cluster, t_g);
    const auto stats = bench::simulate_epoch_sharded(
        catalog.size(), sim::plan_flow(catalog, pipe, cm, decision.plan.assignment()),
        decision.execution_nodes, config.cluster, batch_time, 42, 0);
    check_row(decision, stats);
    offloaded_by_r.push_back(decision.offloaded);
    // Every offloaded prefix runs on a holder of its sample.
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      if (decision.plan.prefix(i) == 0) continue;
      const auto holders = replicas.replicas_of(i);
      holders_ok = holders_ok && std::find(holders.begin(), holders.end(),
                                           decision.execution_nodes.node_of(i)) != holders.end();
    }
    rep.add_row({strf("%d", r), strf("%zu", decision.offloaded),
                 strf("%.1f s", stats.totals.epoch_time.value()),
                 bench::gb(stats.totals.traffic)});
  }
  std::printf("%s", rep.render().c_str());

  const bool replication_ok = offloaded_by_r[1] >= offloaded_by_r[0];
  if (single_node_ok && sums_ok && ledger_ok && replication_ok && holders_ok) {
    std::printf("verified: 1-node sharded epoch equals the flat simulator, per-node busy sums "
                "to the total and matches the planner, replication 2 offloads at least as much "
                "as 1, every prefix runs on a replica holder\n");
    return 0;
  }
  std::printf("FAILED: single_node=%d sums=%d ledger=%d replication=%d holders=%d\n",
              single_node_ok, sums_ok, ledger_ok, replication_ok, holders_ok);
  return 1;
}
