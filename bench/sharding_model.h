// Sharded storage clusters, the setting ablation A6 measures (beyond the
// paper, whose storage side is one node): the dataset is spread over several
// storage nodes, and an offloaded prefix consumes the CPUs of the node that
// runs it — so a skewed placement can make one node the offloading
// bottleneck even when the cluster as a whole has spare cores. This header
// holds the sample→node placement and its replicated extension, the
// per-node greedy that budgets each node's cores, and the epoch that runs
// each prefix on its node's CPU pool while all nodes share one egress link.
// Bench-local: only bench/ablation_sharding.cc and its unit tests use it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/plan.h"
#include "sim/schedule.h"
#include "util/check.h"
#include "util/rng.h"

namespace sophon::bench {

/// Immutable sample→node assignment for a catalog.
class ShardMap {
 public:
  ShardMap() = default;

  /// Balanced hash placement (the common object-store behaviour).
  static ShardMap hashed(std::size_t num_samples, int num_nodes, std::uint64_t seed) {
    SOPHON_CHECK(num_nodes >= 1 && num_nodes <= 0xffff);
    std::vector<std::uint16_t> assignment;
    assignment.reserve(num_samples);
    for (std::size_t i = 0; i < num_samples; ++i) {
      assignment.push_back(static_cast<std::uint16_t>(derive_seed(seed, i) %
                                                      static_cast<std::uint64_t>(num_nodes)));
    }
    return explicit_map(std::move(assignment), num_nodes);
  }

  /// Explicit assignment (skewed layouts, tests). Every entry must be in
  /// [0, num_nodes).
  static ShardMap explicit_map(std::vector<std::uint16_t> assignment, int num_nodes) {
    SOPHON_CHECK(num_nodes >= 1 && num_nodes <= 0xffff);
    for (const auto node : assignment) {
      SOPHON_CHECK_MSG(node < num_nodes, "shard assignment out of range");
    }
    ShardMap map;
    map.num_nodes_ = num_nodes;
    map.node_of_ = std::move(assignment);
    return map;
  }

  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t size() const { return node_of_.size(); }
  [[nodiscard]] int node_of(std::size_t sample_index) const {
    SOPHON_CHECK(sample_index < node_of_.size());
    return node_of_[sample_index];
  }
  /// One node per sample, as the scheduling core's per-sample storage pools.
  [[nodiscard]] std::span<const std::uint16_t> nodes() const { return node_of_; }

 private:
  std::vector<std::uint16_t> node_of_;
  int num_nodes_ = 0;
};

/// Replicated placement: every sample lives on `replication` distinct nodes
/// (primary first). Distributed stores replicate for durability; for
/// offloading it means the prefix can run on *any* replica holder, which
/// the replica-aware greedy exploits to dodge hot nodes.
class ReplicaMap {
 public:
  ReplicaMap() = default;

  /// Extend a primary placement with `replication - 1` extra distinct
  /// replicas per sample, drawn deterministically. `replication` must be in
  /// [1, num_nodes].
  static ReplicaMap replicated(const ShardMap& primary, int replication, std::uint64_t seed) {
    SOPHON_CHECK(replication >= 1);
    SOPHON_CHECK_MSG(replication <= primary.num_nodes(), "cannot place more replicas than nodes");
    ReplicaMap map;
    map.num_nodes_ = primary.num_nodes();
    map.replication_ = replication;
    map.nodes_.reserve(primary.size() * static_cast<std::size_t>(replication));
    for (std::size_t i = 0; i < primary.size(); ++i) {
      const auto first = static_cast<std::uint16_t>(primary.node_of(i));
      map.nodes_.push_back(first);
      // Draw the remaining replicas without repetition, deterministically.
      Rng rng(derive_seed(derive_seed(seed, "replicas"), i));
      std::vector<bool> used(static_cast<std::size_t>(map.num_nodes_), false);
      used[first] = true;
      for (int r = 1; r < replication; ++r) {
        std::uint16_t node;
        do {
          node = static_cast<std::uint16_t>(rng.uniform_int(0, map.num_nodes_ - 1));
        } while (used[node]);
        used[node] = true;
        map.nodes_.push_back(node);
      }
    }
    return map;
  }

  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] int replication() const { return replication_; }
  [[nodiscard]] std::size_t size() const {
    return replication_ == 0 ? 0 : nodes_.size() / static_cast<std::size_t>(replication_);
  }

  /// The replica holders of one sample (primary first).
  [[nodiscard]] std::span<const std::uint16_t> replicas_of(std::size_t sample_index) const {
    SOPHON_CHECK(sample_index < size());
    return {nodes_.data() + sample_index * static_cast<std::size_t>(replication_),
            static_cast<std::size_t>(replication_)};
  }

 private:
  std::vector<std::uint16_t> nodes_;  // size() * replication_, row-major
  int num_nodes_ = 0;
  int replication_ = 0;
};

/// Result of per-node planning: in addition to the plan, the node each
/// offloaded sample's prefix was routed to (its least-loaded replica at
/// selection time), expressed as a ShardMap so the sharded epoch can run it
/// directly.
struct ReplicatedDecisionResult {
  core::OffloadPlan plan;
  ShardMap execution_nodes;  // where each sample's prefix runs
  core::EpochCostVector baseline;
  core::EpochCostVector final_cost;  // t_cs = busiest node's CPU time
  std::vector<Seconds> node_cpu;     // offloaded single-core seconds per node
  std::size_t offloaded = 0;
};

/// The per-node greedy over a sharded storage cluster. T_CS is governed by
/// the *busiest node* (each node only preprocesses the samples routed to
/// it), so the per-node budget matters, not just the cluster total;
/// `cluster.storage_cores` is the per-node core budget. Candidates are taken
/// in the paper's efficiency order; each may run its prefix on any of its
/// replica holders and is routed to the least-loaded one, which largely
/// neutralises placement skew as replication grows. A candidate whose node
/// is saturated (adding it would not lower the predicted epoch time) is
/// skipped rather than ending the loop, so spare capacity on cold nodes
/// keeps being used. At replication 1 (`ReplicaMap::replicated(shards, 1,
/// seed)`) every prefix runs on its primary: the shard-aware plan.
inline ReplicatedDecisionResult decide_offloading_replicated(
    const std::vector<core::SampleProfile>& profiles, const ReplicaMap& replicas,
    const sim::ClusterConfig& cluster, Seconds gpu_epoch_time) {
  SOPHON_CHECK(!profiles.empty());
  SOPHON_CHECK(replicas.size() == profiles.size());

  ReplicatedDecisionResult result;
  result.plan = core::OffloadPlan(profiles.size());
  // The no-offloading baseline, summed as core::decide_offloading does.
  Seconds local_cpu;
  double traffic = 0.0;
  for (const auto& p : profiles) {
    local_cpu += std::accumulate(p.op_costs.begin(), p.op_costs.end(), Seconds(0.0));
    traffic += p.stage_sizes.front().as_double();
  }
  result.baseline.t_g = gpu_epoch_time;
  result.baseline.t_cc = local_cpu / static_cast<double>(cluster.compute_cores);
  result.baseline.t_cs = Seconds(0.0);
  result.baseline.t_net = Seconds(traffic / cluster.bandwidth.bytes_per_sec());
  result.final_cost = result.baseline;
  result.node_cpu.assign(static_cast<std::size_t>(replicas.num_nodes()), Seconds(0.0));

  // Default execution node: the primary replica (only meaningful for
  // offloaded samples, but the map must be total).
  std::vector<std::uint16_t> execution(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) execution[i] = replicas.replicas_of(i)[0];

  // Candidates: samples whose size shrinks at some intermediate stage, by
  // efficiency descending, then index ascending.
  std::vector<std::pair<double, std::uint32_t>> candidates;
  for (const auto& p : profiles) {
    if (p.benefits() && p.efficiency() > 0.0) {
      candidates.emplace_back(p.efficiency(), p.sample_index);
    }
  }

  const double node_capacity =
      static_cast<double>(cluster.storage_cores) * cluster.storage_core_speed;
  if (node_capacity <= 0.0 || candidates.empty()) {
    result.execution_nodes = ShardMap::explicit_map(std::move(execution), replicas.num_nodes());
    return result;
  }

  std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  core::EpochCostVector cost = result.baseline;
  const double bytes_per_sec = cluster.bandwidth.bytes_per_sec();
  auto max_node_tcs = [&]() {
    Seconds worst(0.0);
    for (const auto busy : result.node_cpu) worst = std::max(worst, busy / node_capacity);
    return worst;
  };

  for (const auto& [efficiency, idx] : candidates) {
    if (!cost.net_predominant()) break;
    const auto& p = profiles[idx];

    // Route to the least-loaded replica holder.
    std::uint16_t best_node = replicas.replicas_of(idx)[0];
    for (const auto node : replicas.replicas_of(idx)) {
      if (result.node_cpu[node] < result.node_cpu[best_node]) best_node = node;
    }

    core::EpochCostVector next = cost;
    next.t_net -= Seconds(p.reduction.as_double() / bytes_per_sec);
    next.t_cc -= p.prefix_time / static_cast<double>(cluster.compute_cores);
    const Seconds node_after = (result.node_cpu[best_node] + p.prefix_time) / node_capacity;
    next.t_cs = std::max(max_node_tcs(), node_after);
    // Node-saturation skip: if routing this sample through its (hot) node
    // would not improve the predicted epoch time, leave it local and keep
    // scanning — samples on colder nodes may still help.
    if (next.predicted_epoch_time() >= cost.predicted_epoch_time()) continue;

    cost = next;
    result.node_cpu[best_node] += p.prefix_time;
    execution[idx] = best_node;
    result.plan.set(idx, static_cast<std::uint8_t>(p.min_stage));
    ++result.offloaded;
  }
  result.final_cost = cost;
  result.execution_nodes = ShardMap::explicit_map(std::move(execution), replicas.num_nodes());
  return result;
}

/// Epoch stats for a sharded storage cluster: per-node CPU busy time on top
/// of the aggregate measurements.
struct ShardedEpochStats {
  sim::EpochStats totals;
  std::vector<Seconds> node_cpu_busy;  // one entry per storage node
};

/// Simulate one epoch against a multi-node storage cluster: each sample's
/// offloaded prefix runs on the CPU pool of the node `shards` names
/// (`cluster.storage_cores` is the per-node budget); all nodes share one
/// egress link to the compute cluster. With one node this is
/// sim::simulate_epoch_flows.
inline ShardedEpochStats simulate_epoch_sharded(std::size_t num_samples, const sim::FlowFn& flow,
                                                const ShardMap& shards,
                                                const sim::ClusterConfig& cluster,
                                                Seconds gpu_batch_time, std::uint64_t seed,
                                                std::size_t epoch_index = 0) {
  SOPHON_CHECK(shards.size() == num_samples);
  sim::ResourceMap resources(cluster);
  resources.storage.assign(static_cast<std::size_t>(shards.num_nodes()),
                           sim::CpuPool(cluster.storage_cores, cluster.storage_core_speed));
  sim::JobLoad job =
      sim::single_job(cluster, num_samples, flow, gpu_batch_time, seed, epoch_index);
  job.shards = shards.nodes();
  ShardedEpochStats stats;
  sim::NoRecord plain;
  stats.totals =
      sim::run_batch_window(plain, resources, {&job, 1}, cluster.prefetch_batches).front();
  stats.totals.storage_cpu_busy = resources.storage_busy();
  for (const sim::CpuPool& pool : resources.storage) {
    stats.node_cpu_busy.push_back(pool.busy_time());
  }
  return stats;
}

}  // namespace sophon::bench
