#include "core/adapt/adapt.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace sophon::core::adapt {

namespace {

constexpr const char* kChecksCounter = "sophon_replan_checks";
constexpr const char* kTriggeredCounter = "sophon_replan_triggered";
constexpr const char* kCooldownCounter = "sophon_replan_suppressed_cooldown";
constexpr const char* kImprovementCounter = "sophon_replan_suppressed_improvement";

void pre_register(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->set_help(kChecksCounter, "Epoch boundaries the replanner examined.");
  metrics->set_help(kTriggeredCounter, "Re-plans accepted and swapped in.");
  metrics->set_help(kCooldownCounter, "Drifted epochs suppressed by the re-plan cooldown.");
  metrics->set_help(kImprovementCounter,
                    "Candidate plans rejected by the relative-improvement floor.");
  metrics->counter(kChecksCounter).increment(0);
  metrics->counter(kTriggeredCounter).increment(0);
  metrics->counter(kCooldownCounter).increment(0);
  metrics->counter(kImprovementCounter).increment(0);
  metrics->gauge("sophon_replan_drift").set(0.0);
  metrics->gauge("sophon_replan_improvement_estimate").set(0.0);
  metrics->gauge("sophon_replan_generation").set(0.0);
}

}  // namespace

EpochObservation observe_epoch(const sim::EpochStats& stats, const sim::ClusterConfig& actual,
                               const sim::FaultReplayStats* faults) {
  EpochObservation obs;
  obs.observed.t_g = stats.gpu_busy;
  obs.observed.t_cc = stats.compute_cpu_busy / static_cast<double>(actual.compute_cores);
  // storage_cpu_busy already counts each op at the cores' speed, so it
  // spreads over the cores only; the prediction applies the speed once.
  obs.observed.t_cs = actual.storage_cores > 0
                          ? stats.storage_cpu_busy / static_cast<double>(actual.storage_cores)
                          : Seconds(0.0);
  obs.observed.t_net = actual.bandwidth.transfer_time(stats.traffic);
  obs.traffic = stats.traffic;
  obs.epoch_time = stats.epoch_time;
  obs.samples = stats.samples;
  if (faults != nullptr) {
    obs.retries = faults->retries;
    obs.degraded = faults->degraded;
  }
  return obs;
}

EpochObservation observe_report(const obs::EpochReport& report, Bytes traffic) {
  EpochObservation obs;
  const auto costs = report.observed();
  obs.observed.t_g = costs.t_g;
  obs.observed.t_cc = costs.t_cc;
  obs.observed.t_cs = costs.t_cs;
  obs.observed.t_net = costs.t_net;
  obs.traffic = traffic;
  obs.epoch_time = report.wall();
  return obs;
}

DriftReport measure_drift(const EpochCostVector& predicted, const EpochCostVector& observed) {
  DriftReport report;
  double denom = predicted.predicted_epoch_time().value();
  if (denom <= 0.0) denom = std::max(observed.predominant().value(), 1e-12);
  report.t_g = std::abs(observed.t_g.value() - predicted.t_g.value()) / denom;
  report.t_cc = std::abs(observed.t_cc.value() - predicted.t_cc.value()) / denom;
  report.t_cs = std::abs(observed.t_cs.value() - predicted.t_cs.value()) / denom;
  report.t_net = std::abs(observed.t_net.value() - predicted.t_net.value()) / denom;
  report.max_drift = report.t_g;
  report.worst = "t_g";
  const std::pair<double, std::string_view> rest[] = {
      {report.t_cc, "t_cc"}, {report.t_cs, "t_cs"}, {report.t_net, "t_net"}};
  for (const auto& [value, name] : rest) {
    if (value > report.max_drift) {
      report.max_drift = value;
      report.worst = name;
    }
  }
  report.bottleneck_shifted = predicted.bottleneck() != observed.bottleneck();
  return report;
}

sim::ClusterConfig calibrate_cluster(const sim::ClusterConfig& planned,
                                     const EpochCostVector& predicted,
                                     const EpochObservation& observation) {
  sim::ClusterConfig calibrated = planned;
  if (observation.observed.t_net.value() > 0.0 && observation.traffic.count() > 0) {
    calibrated.bandwidth = Bandwidth::bits_per_sec(8.0 * observation.traffic.as_double() /
                                                   observation.observed.t_net.value());
  }
  if (predicted.t_cs.value() > 0.0 && observation.observed.t_cs.value() > 0.0) {
    calibrated.storage_core_speed =
        planned.storage_core_speed * (predicted.t_cs / observation.observed.t_cs);
  }
  return calibrated;
}

std::string_view replan_outcome_name(ReplanOutcome outcome) {
  switch (outcome) {
    case ReplanOutcome::kNoDrift: return "no-drift";
    case ReplanOutcome::kSuppressedCooldown: return "suppressed-cooldown";
    case ReplanOutcome::kSuppressedImprovement: return "suppressed-improvement";
    case ReplanOutcome::kReplanned: return "replanned";
  }
  return "unknown";
}

AdaptiveReplanner::AdaptiveReplanner(std::vector<SampleProfile> profiles,
                                     const sim::ClusterConfig& planned, Seconds gpu_epoch_time,
                                     AdaptOptions options,
                                     std::shared_ptr<const OffloadPlan> initial_plan)
    : profiles_(std::move(profiles)),
      planned_(planned),
      calibrated_(planned),
      gpu_epoch_time_(gpu_epoch_time),
      options_(options) {
  SOPHON_CHECK(!profiles_.empty());
  SOPHON_CHECK(options_.replan_cooldown >= 1);
  pre_register(options_.metrics);
  if (initial_plan != nullptr) {
    SOPHON_CHECK(initial_plan->size() == profiles_.size());
    plan_ = std::move(initial_plan);
    predicted_ = evaluate_plan(profiles_, *plan_, calibrated_, gpu_epoch_time_);
  } else {
    auto result = decide_offloading(profiles_, calibrated_, gpu_epoch_time_);
    plan_ = std::make_shared<const OffloadPlan>(std::move(result.plan));
    predicted_ = result.final_cost;
  }
}

void AdaptiveReplanner::begin_epoch(std::size_t epoch_index) {
  SOPHON_CHECK_MSG(!in_epoch_, "begin_epoch while an epoch is already open");
  in_epoch_ = true;
  epoch_index_ = epoch_index;
}

ReplanDecision AdaptiveReplanner::end_epoch(const EpochObservation& observation) {
  SOPHON_CHECK_MSG(in_epoch_, "end_epoch without begin_epoch");
  in_epoch_ = false;

  // A span per decision: virtual-epoch work is instantaneous in wall time,
  // so the span's value is its name (the outcome) and its presence on the
  // timeline, not its duration.
  obs::Span span(obs::SpanCategory::kOther, "replan-check");

  ReplanDecision decision;
  decision.drift = measure_drift(predicted_, observation.observed);
  decision.predicted = predicted_;
  auto* metrics = options_.metrics;
  if (metrics != nullptr) {
    metrics->counter(kChecksCounter).increment();
    metrics->gauge("sophon_replan_drift").set(decision.drift.max_drift);
  }

  if (decision.drift.max_drift <= options_.drift_threshold) {
    decision.outcome = ReplanOutcome::kNoDrift;
    return decision;
  }

  // Hysteresis gate 1: cooldown. The prediction stays un-anchored so the
  // drift is re-examined as soon as the cooldown expires.
  if (has_replanned_ && epoch_index_ - last_replan_epoch_ < options_.replan_cooldown) {
    decision.outcome = ReplanOutcome::kSuppressedCooldown;
    if (metrics != nullptr) metrics->counter(kCooldownCounter).increment();
    return decision;
  }

  // Re-fit the coefficients from the measurements and re-run the greedy
  // with them; T_G is re-anchored to the measured GPU busy time when the
  // epoch saw any.
  calibrated_ = calibrate_cluster(planned_, predicted_, observation);
  if (observation.observed.t_g.value() > 0.0) gpu_epoch_time_ = observation.observed.t_g;
  auto candidate = decide_offloading(profiles_, calibrated_, gpu_epoch_time_);
  const EpochCostVector current_cost =
      evaluate_plan(profiles_, *plan_, calibrated_, gpu_epoch_time_);
  const double current_time = current_cost.predicted_epoch_time().value();
  decision.improvement =
      current_time <= 0.0
          ? 0.0
          : (current_time - candidate.final_cost.predicted_epoch_time().value()) / current_time;
  if (metrics != nullptr) {
    metrics->gauge("sophon_replan_improvement_estimate").set(decision.improvement);
  }

  // Hysteresis gate 2: improvement floor. Keep the plan but adopt the
  // measured coefficients as the new prediction, so the same (now
  // explained) conditions stop registering as drift.
  if (decision.improvement < options_.min_improvement) {
    predicted_ = current_cost;
    decision.outcome = ReplanOutcome::kSuppressedImprovement;
    decision.predicted = predicted_;
    if (metrics != nullptr) metrics->counter(kImprovementCounter).increment();
    return decision;
  }

  // Swap at the boundary: a fresh plan object replaces the lease handed to
  // the next epoch; epochs still holding the old lease stay consistent.
  plan_ = std::make_shared<const OffloadPlan>(std::move(candidate.plan));
  predicted_ = candidate.final_cost;
  ++generation_;
  has_replanned_ = true;
  last_replan_epoch_ = epoch_index_;
  decision.outcome = ReplanOutcome::kReplanned;
  decision.predicted = predicted_;
  if (metrics != nullptr) {
    metrics->counter(kTriggeredCounter).increment();
    metrics->gauge("sophon_replan_generation").set(static_cast<double>(generation_));
  }
  return decision;
}

}  // namespace sophon::core::adapt
