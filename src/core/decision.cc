#include "core/decision.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace sophon::core {

namespace {

/// The baseline (no offloading) cost vector.
EpochCostVector baseline_cost(const std::vector<SampleProfile>& profiles,
                              const sim::ClusterConfig& cluster, Seconds gpu_epoch_time) {
  EpochCostVector cost;
  cost.t_g = gpu_epoch_time;
  Seconds local_cpu;
  double traffic = 0.0;
  for (const auto& p : profiles) {
    local_cpu += std::accumulate(p.op_costs.begin(), p.op_costs.end(), Seconds(0.0));
    traffic += p.stage_sizes.front().as_double();
  }
  cost.t_cc = local_cpu / static_cast<double>(cluster.compute_cores);
  cost.t_cs = Seconds(0.0);
  cost.t_net = Seconds(traffic / cluster.bandwidth.bytes_per_sec());
  return cost;
}

/// Effective storage-core capacity (cores x speed factor).
double storage_capacity(const sim::ClusterConfig& cluster) {
  return static_cast<double>(cluster.storage_cores) * cluster.storage_core_speed;
}

/// The greedy's candidates, in index order: samples whose size shrinks at
/// some intermediate stage.
std::vector<std::uint32_t> beneficial_candidates(const std::vector<SampleProfile>& profiles) {
  std::vector<std::uint32_t> candidates;
  for (const auto& p : profiles) {
    if (p.benefits() && p.efficiency() > 0.0) candidates.push_back(p.sample_index);
  }
  return candidates;
}

/// The paper's greedy order: efficiency descending, then index ascending.
/// Each efficiency is computed once, as a sort key.
void sort_by_efficiency(const std::vector<SampleProfile>& profiles,
                        std::vector<std::uint32_t>& candidates) {
  std::vector<std::pair<double, std::uint32_t>> keys;
  keys.reserve(candidates.size());
  for (const auto idx : candidates) keys.emplace_back(profiles[idx].efficiency(), idx);
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; i < keys.size(); ++i) candidates[i] = keys[i].second;
}

}  // namespace

EpochCostVector evaluate_plan(const std::vector<SampleProfile>& profiles, const OffloadPlan& plan,
                              const sim::ClusterConfig& cluster, Seconds gpu_epoch_time) {
  SOPHON_CHECK(plan.size() == profiles.size());
  EpochCostVector cost;
  cost.t_g = gpu_epoch_time;
  Seconds local_cpu;
  Seconds storage_cpu;
  double traffic = 0.0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& p = profiles[i];
    const std::size_t prefix = plan.prefix(i);
    SOPHON_CHECK(prefix < p.stage_sizes.size());
    traffic += p.stage_sizes[prefix].as_double();
    for (std::size_t op = 0; op < p.op_costs.size(); ++op) {
      if (op < prefix) {
        storage_cpu += p.op_costs[op];
      } else {
        local_cpu += p.op_costs[op];
      }
    }
  }
  cost.t_cc = local_cpu / static_cast<double>(cluster.compute_cores);
  const double capacity = storage_capacity(cluster);
  if (storage_cpu.value() > 0.0) {
    SOPHON_CHECK_MSG(capacity > 0.0, "plan offloads but cluster has no storage cores");
    cost.t_cs = storage_cpu / capacity;
  }
  cost.t_net = Seconds(traffic / cluster.bandwidth.bytes_per_sec());
  return cost;
}

DecisionResult decide_offloading(const std::vector<SampleProfile>& profiles,
                                 const sim::ClusterConfig& cluster, Seconds gpu_epoch_time,
                                 const DecisionOptions& options) {
  SOPHON_CHECK(!profiles.empty());
  DecisionResult result;
  result.plan = OffloadPlan(profiles.size());
  result.baseline = baseline_cost(profiles, cluster, gpu_epoch_time);
  result.final_cost = result.baseline;

  std::vector<std::uint32_t> candidates = beneficial_candidates(profiles);
  result.beneficial_candidates = candidates.size();

  const double capacity = storage_capacity(cluster);
  if (capacity <= 0.0 || candidates.empty()) return result;

  switch (options.order) {
    case CandidateOrder::kByEfficiency:
      sort_by_efficiency(profiles, candidates);
      break;
    case CandidateOrder::kByReduction:
      std::sort(candidates.begin(), candidates.end(), [&](std::uint32_t a, std::uint32_t b) {
        if (profiles[a].reduction != profiles[b].reduction)
          return profiles[a].reduction > profiles[b].reduction;
        return a < b;
      });
      break;
    case CandidateOrder::kRandom: {
      Rng rng(derive_seed(options.random_seed, "decision-shuffle"));
      for (std::size_t i = candidates.size(); i > 1; --i) {
        const auto j =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(candidates[i - 1], candidates[j]);
      }
      break;
    }
  }

  EpochCostVector cost = result.baseline;
  const double bytes_per_sec = cluster.bandwidth.bytes_per_sec();
  for (const auto idx : candidates) {
    const auto& p = profiles[idx];

    // Stop condition (1): T_Net is no longer the predominant metric.
    if (options.stop_rule != StopRule::kExhaustBenefits && !cost.net_predominant()) break;

    EpochCostVector next = cost;
    next.t_net -= Seconds(p.reduction.as_double() / bytes_per_sec);
    next.t_cc -= p.prefix_time / static_cast<double>(cluster.compute_cores);
    next.t_cs += p.prefix_time / capacity;

    if (options.stop_rule == StopRule::kExactMinimize &&
        next.predicted_epoch_time() >= cost.predicted_epoch_time()) {
      break;
    }

    cost = next;
    result.plan.set(idx, static_cast<std::uint8_t>(p.min_stage));
    ++result.offloaded;
  }
  result.plan.set_traffic_forecast(forecast_plan_traffic(profiles, result.plan));
  result.final_cost = cost;
  return result;
}

PlanTrafficForecast forecast_plan_traffic(const std::vector<SampleProfile>& profiles,
                                          const OffloadPlan& plan) {
  PlanTrafficForecast forecast;
  std::size_t stages = 1;
  for (const auto& p : profiles) stages = std::max(stages, p.stage_sizes.size());
  forecast.per_stage.assign(stages, Bytes(0));
  for (const auto& p : profiles) {
    const std::size_t prefix = plan.size() == 0 ? 0 : plan.prefix(p.sample_index);
    SOPHON_CHECK(prefix < p.stage_sizes.size());
    // stage_sizes are exact framed wire sizes (profiler stage 2), so on an
    // epoch with no faults or replans the prediction matches the link's
    // byte counter exactly — the property the ledger's savings table pins.
    forecast.baseline += p.stage_sizes[0];
    forecast.predicted += p.stage_sizes[prefix];
    forecast.per_stage[prefix] += p.stage_sizes[prefix];
  }
  return forecast;
}

}  // namespace sophon::core
