#include "core/adapt/loop.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/decision.h"
#include "core/profiler.h"
#include "obs/ledger.h"
#include "obs/metrics_table.h"
#include "util/check.h"

namespace sophon::core::adapt {

namespace {

// Flow for one sample under a leased plan. The lease is captured by value:
// even if the replanner swaps plans mid-run, this epoch keeps computing
// against the plan it started with.
std::function<sim::SampleFlow(std::size_t)> flow_under(
    std::shared_ptr<const OffloadPlan> lease, const dataset::Catalog& catalog,
    const pipeline::Pipeline& pipeline, const pipeline::CostModel& cost_model) {
  auto flow = sim::plan_flow(catalog, pipeline, cost_model,
                             lease == nullptr ? std::span<const std::uint8_t>()
                                              : std::span<const std::uint8_t>(lease->assignment()));
  return [lease = std::move(lease), flow = std::move(flow)](std::size_t i) { return flow(i); };
}

}  // namespace

RunResult run_adaptive(const dataset::Catalog& catalog, const pipeline::Pipeline& pipeline,
                       const pipeline::CostModel& cost_model,
                       const obs::critpath::EpochParams& spec, const RunOptions& options) {
  SOPHON_CHECK(!catalog.empty());
  SOPHON_CHECK(spec.num_samples == catalog.size());
  // The loop schedules the batch window only: refuse a spec on worker lanes
  // rather than run it under another discipline than it asks for.
  SOPHON_CHECK(spec.discipline == obs::critpath::Discipline::kBatchWindow);
  SOPHON_CHECK(options.epochs > 0);

  const TelemetryHooks& telemetry = options.telemetry;

  // One replanner for both modes keeps the initial plan identical between a
  // static run and an adaptive run — the comparison the ablation makes.
  auto profiles = profile_stage2(catalog, pipeline, cost_model);
  // Plans from decide_offloading carry their own traffic forecast; an
  // explicit initial plan does not, so keep the profiles around to price
  // its receipt for the ledger's savings table.
  std::vector<SampleProfile> forecast_profiles;
  if (telemetry.ledger != nullptr && options.initial_plan != nullptr) {
    forecast_profiles = profiles;
  }
  AdaptiveReplanner replanner(
      std::move(profiles), spec.cluster,
      gpu_epoch_time(catalog.size(), spec.cluster.batch_size, spec.gpu_batch_time),
      options.adapt_options, options.initial_plan);

  if (telemetry.metrics != nullptr) obs::register_epoch_metrics(*telemetry.metrics);

  RunResult result;
  result.rows.reserve(options.epochs);
  std::uint64_t forecast_noted_generation = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    obs::critpath::EpochParams params = spec;
    if (options.bandwidth_at) params.cluster.bandwidth = options.bandwidth_at(epoch);
    params.epoch_index = epoch;
    const sim::ClusterConfig& actual = params.cluster;

    auto lease = replanner.plan();
    auto flow = flow_under(lease, catalog, pipeline, cost_model);
    sim::FaultReplayStats fault_stats;
    if (options.faults != nullptr) {
      flow = sim::faulty_flow(std::move(flow), flow_under(nullptr, catalog, pipeline, cost_model),
                              *options.faults, options.retry, epoch, &fault_stats,
                              telemetry.ledger);
    } else if (telemetry.ledger != nullptr) {
      // Fault-free epochs have a single cause: every sample's bytes are a
      // demand fetch at its planned stage. (Safe because the DES calls the
      // flow exactly once per sample.)
      flow = [inner = std::move(flow), ledger = telemetry.ledger](std::size_t i) {
        auto f = inner(i);
        ledger->record(i, f.stage, obs::TrafficCause::kDemand, f.wire);
        return f;
      };
    }
    if (telemetry.ledger != nullptr && replanner.generation() != forecast_noted_generation) {
      forecast_noted_generation = replanner.generation();
      if (const auto& forecast = lease->traffic_forecast()) {
        telemetry.ledger->note_plan_forecast(forecast_noted_generation, forecast->baseline,
                                             forecast->predicted);
      } else if (!forecast_profiles.empty()) {
        const auto priced = forecast_plan_traffic(forecast_profiles, *lease);
        telemetry.ledger->note_plan_forecast(forecast_noted_generation, priced.baseline,
                                             priced.predicted);
      }
    }

    if (options.adapt) replanner.begin_epoch(epoch);
    const sim::EpochStats stats = obs::critpath::run_epoch(flow, params).epoch;
    const EpochObservation observation = observe_epoch(
        stats, actual, options.faults != nullptr ? &fault_stats : nullptr);

    EpochRow row;
    row.epoch = epoch;
    row.actual_mbps = actual.bandwidth.bps() / 1e6;
    row.plan_generation = replanner.generation();
    row.offloaded = lease->offloaded_count();
    row.epoch_time = stats.epoch_time;
    row.traffic = stats.traffic;
    row.retries = observation.retries;
    row.degraded = observation.degraded;
    if (options.adapt) {
      row.decision = replanner.end_epoch(observation);
      if (row.decision.outcome == ReplanOutcome::kReplanned) ++result.replans;
    }
    result.rows.push_back(row);

    if (telemetry.ledger != nullptr) {
      telemetry.ledger->end_epoch(epoch, stats.traffic, row.plan_generation);
    }

    if (telemetry.metrics != nullptr) {
      MetricsRegistry& metrics = *telemetry.metrics;
      metrics.counter("sophon_epochs_completed").increment();
      metrics.counter("sophon_epoch_traffic_bytes")
          .increment(static_cast<std::uint64_t>(std::max<std::int64_t>(stats.traffic.count(), 0)));
      metrics.gauge("sophon_epoch_time_seconds").set(stats.epoch_time.value());
      metrics.gauge("sophon_epoch_gpu_utilization").set(stats.gpu_utilization);
      const double epoch_seconds = stats.epoch_time.value();
      const double link_seconds = actual.bandwidth.transfer_time(stats.traffic).value();
      const double link_utilization =
          epoch_seconds > 0.0 ? std::min(link_seconds / epoch_seconds, 1.0) : 0.0;
      metrics.gauge("sophon_epoch_link_utilization").set(link_utilization);
      const double stall_seconds = std::max(0.0, link_seconds - stats.gpu_busy.value());
      metrics.gauge("sophon_epoch_fetch_stall_fraction")
          .set(epoch_seconds > 0.0 ? std::min(stall_seconds / epoch_seconds, 1.0) : 0.0);
      if (options.faults != nullptr) {
        metrics.counter("sophon_fetch_retries").increment(fault_stats.retries);
        metrics.counter("sophon_degraded_samples").increment(fault_stats.degraded);
        metrics.counter("sophon_fetch_failures").increment(fault_stats.failed);
      }
    }
  }
  result.final_plan = replanner.plan();
  return result;
}

}  // namespace sophon::core::adapt
