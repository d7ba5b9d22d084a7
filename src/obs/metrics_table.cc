#include "obs/metrics_table.h"

#include <algorithm>

namespace sophon::obs {

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kDuration:
      return "duration";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

namespace {

// Sorted by name — find_metric binary-searches and the drift test checks the
// ordering so review diffs stay one-line-per-metric.
constexpr MetricInfo kTable[] = {
    {"sophon_degraded_samples", MetricKind::kCounter,
     "Samples served in degraded form after fetch retry exhaustion"},
    {"sophon_diskstore_corrupt", MetricKind::kCounter,
     "Disk-store reads that failed payload checksum verification"},
    {"sophon_epoch_fetch_stall_fraction", MetricKind::kGauge,
     "Fraction of the last epoch the trainer spent stalled on data fetch"},
    {"sophon_epoch_gpu_utilization", MetricKind::kGauge,
     "GPU busy fraction over the last completed epoch"},
    {"sophon_epoch_link_utilization", MetricKind::kGauge,
     "Storage-to-trainer link busy fraction over the last completed epoch"},
    {"sophon_epoch_time_seconds", MetricKind::kGauge,
     "Duration of the last completed epoch in virtual seconds"},
    {"sophon_epoch_traffic_bytes", MetricKind::kCounter,
     "Bytes moved over the storage link, accumulated across epochs"},
    {"sophon_epochs_completed", MetricKind::kCounter,
     "Epochs the adaptive run loop has completed"},
    {"sophon_fetch_attempt_bytes", MetricKind::kCounter,
     "Wire bytes that arrived across every fetch attempt, retries included"},
    {"sophon_fetch_attempts", MetricKind::kCounter,
     "Sample fetch attempts, including retries"},
    {"sophon_fetch_backoff", MetricKind::kHistogram,
     "Backoff delay before each fetch retry, in seconds"},
    {"sophon_fetch_backoff_seconds", MetricKind::kGauge,
     "Total backoff delay accumulated by the most recent fetch ladder"},
    {"sophon_fetch_corrupt", MetricKind::kCounter,
     "Fetch attempts rejected for checksum mismatch"},
    {"sophon_fetch_deadline_exceeded", MetricKind::kCounter,
     "Fetch ladders abandoned because the retry deadline passed"},
    {"sophon_fetch_failures", MetricKind::kCounter,
     "Fetch ladders that exhausted every retry"},
    {"sophon_fetch_retries", MetricKind::kCounter,
     "Fetch attempts that were retries of a failed attempt"},
    {"sophon_fetch_wasted_bytes", MetricKind::kCounter,
     "Wire bytes of fetch responses discarded for corruption before a retry"},
    {"sophon_ledger_attributed_bytes", MetricKind::kGauge,
     "Total link bytes the traffic ledger has attributed to a cause"},
    {"sophon_ledger_control_bytes", MetricKind::kGauge,
     "Ledger bytes attributed to control-plane / RPC overhead"},
    {"sophon_ledger_demand_bytes", MetricKind::kGauge,
     "Ledger bytes attributed to on-demand sample fetches"},
    {"sophon_ledger_prefetch_bytes", MetricKind::kGauge,
     "Ledger bytes attributed to prefetches later claimed by the consumer"},
    {"sophon_ledger_prefetch_wasted_bytes", MetricKind::kGauge,
     "Ledger bytes attributed to prefetches evicted before any claim"},
    {"sophon_ledger_raw_fallback_bytes", MetricKind::kGauge,
     "Ledger bytes attributed to raw-stage degradation fallbacks"},
    {"sophon_ledger_records", MetricKind::kCounter,
     "Attribution records the traffic ledger has accepted"},
    {"sophon_ledger_retry_bytes", MetricKind::kGauge,
     "Ledger bytes attributed to retried (discarded) fetch attempts"},
    {"sophon_ledger_shard_corrupt_refetch_bytes", MetricKind::kGauge,
     "Ledger bytes attributed to refetches after a corrupt shard read"},
    {"sophon_ledger_shard_hit_bytes", MetricKind::kGauge,
     "Ledger bytes attributed to fetches served from a packed shard"},
    {"sophon_ledger_unattributed_bytes", MetricKind::kGauge,
     "Absolute gap between link counters and ledger attribution (0 = byte-exact)"},
    {"sophon_loader_fetch_errors", MetricKind::kCounter,
     "Loader-visible fetch errors after resilience gave up"},
    {"sophon_prefetch_buffer_budget_bytes", MetricKind::kGauge,
     "Configured staging-buffer byte budget (0 when unbounded)"},
    {"sophon_prefetch_buffer_bytes", MetricKind::kGauge,
     "Bytes currently resident in the prefetch staging buffer"},
    {"sophon_prefetch_buffer_depth", MetricKind::kGauge,
     "Samples currently resident in the prefetch staging buffer"},
    {"sophon_prefetch_buffer_highwater_bytes", MetricKind::kGauge,
     "High-water mark of staging-buffer byte occupancy"},
    {"sophon_prefetch_cancelled", MetricKind::kCounter,
     "Prefetches cancelled before completion"},
    {"sophon_prefetch_failed", MetricKind::kCounter, "Prefetches that failed"},
    {"sophon_prefetch_hits", MetricKind::kCounter,
     "Consumer claims satisfied from the staging buffer"},
    {"sophon_prefetch_issued", MetricKind::kCounter, "Prefetches issued"},
    {"sophon_prefetch_late", MetricKind::kCounter,
     "Staging-buffer hits that made the consumer wait"},
    {"sophon_prefetch_lead_seconds", MetricKind::kHistogram,
     "Lead time between prefetch completion and consumer claim"},
    {"sophon_prefetch_skipped_consumed", MetricKind::kCounter,
     "Prefetch candidates skipped because the consumer already passed them"},
    {"sophon_prefetch_skipped_deprioritized", MetricKind::kCounter,
     "Prefetch candidates skipped by the deprioritization policy"},
    {"sophon_replan_checks", MetricKind::kCounter,
     "Epoch boundaries where the replanner evaluated drift"},
    {"sophon_replan_drift", MetricKind::kGauge,
     "Max relative drift between planned and observed epoch costs"},
    {"sophon_replan_generation", MetricKind::kGauge,
     "Generation number of the currently active plan"},
    {"sophon_replan_improvement_estimate", MetricKind::kGauge,
     "Predicted epoch-time improvement of the candidate plan"},
    {"sophon_replan_suppressed_cooldown", MetricKind::kCounter,
     "Re-plans suppressed by the cooldown window"},
    {"sophon_replan_suppressed_improvement", MetricKind::kCounter,
     "Re-plans suppressed for insufficient predicted improvement"},
    {"sophon_replan_triggered", MetricKind::kCounter, "Re-plans accepted and applied"},
    {"sophon_server_fetch", MetricKind::kCounter,
     "Samples the storage server shipped raw (trainer-side preprocessing)"},
    {"sophon_server_offload", MetricKind::kCounter,
     "Samples the storage server preprocessed before shipping"},
    {"sophon_server_prefix_cpu", MetricKind::kDuration,
     "Storage-side CPU time spent running offloaded prefixes"},
    {"sophon_shard_corrupt", MetricKind::kCounter,
     "Shard reads that failed checksum verification"},
    {"sophon_shard_hit", MetricKind::kCounter, "Sample reads served from a packed shard"},
    {"sophon_shard_miss", MetricKind::kCounter,
     "Sample reads that fell back past the shard store"},
};

}  // namespace

std::span<const MetricInfo> known_metrics() { return kTable; }

const MetricInfo* find_metric(std::string_view name) {
  const auto it = std::lower_bound(
      std::begin(kTable), std::end(kTable), name,
      [](const MetricInfo& info, std::string_view key) { return info.name < key; });
  if (it == std::end(kTable) || name != it->name) return nullptr;
  return it;
}

void register_known_metrics(MetricsRegistry& registry) {
  for (const MetricInfo& info : kTable) {
    switch (info.kind) {
      case MetricKind::kCounter:
        (void)registry.counter(info.name);
        break;
      case MetricKind::kGauge:
        (void)registry.gauge(info.name);
        break;
      case MetricKind::kDuration:
        (void)registry.duration(info.name);
        break;
      case MetricKind::kHistogram:
        (void)registry.histogram(info.name);
        break;
    }
    registry.set_help(info.name, info.help);
  }
}

void register_epoch_metrics(MetricsRegistry& registry) {
  for (const char* name :
       {"sophon_epoch_fetch_stall_fraction", "sophon_epoch_gpu_utilization",
        "sophon_epoch_link_utilization", "sophon_epoch_time_seconds"}) {
    const MetricInfo* info = find_metric(name);
    (void)registry.gauge(name);
    if (info != nullptr) registry.set_help(name, info->help);
  }
  (void)registry.counter("sophon_epoch_traffic_bytes");
  (void)registry.counter("sophon_epochs_completed");
  for (const char* name : {"sophon_epoch_traffic_bytes", "sophon_epochs_completed"}) {
    const MetricInfo* info = find_metric(name);
    if (info != nullptr) registry.set_help(name, info->help);
  }
}

}  // namespace sophon::obs
