// The pre-registered metric table: every `sophon_*` name the system emits.
//
// PR 3 fixed, by hand, a class of drift where an instrumentation point
// invented a metric name that no dashboard, doc, or pre-registration knew
// about. This table is the fix made structural: each subsystem's metric
// names are declared here once with their kind and help text, the drift
// test (tests/obs_metrics_table_test.cc) runs a full simulation — prefetch,
// shard serving, adaptation, faults — and asserts every name the registry
// ends up holding appears here. Adding an instrumentation point without a
// table row fails that test; adding a table row without a kind match fails
// its twin.
//
// Bench-local names (`sophon_bench_*`) and tool-local timers are exempt by
// convention: the table covers the library's operational surface, the one
// the Prometheus exposition prints.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "util/telemetry.h"

namespace sophon::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kDuration, kHistogram };

[[nodiscard]] std::string_view metric_kind_name(MetricKind kind);

struct MetricInfo {
  const char* name;
  MetricKind kind;
  const char* help;
};

/// Every operational metric, sorted by name.
[[nodiscard]] std::span<const MetricInfo> known_metrics();

/// Table row for `name`, or nullptr.
[[nodiscard]] const MetricInfo* find_metric(std::string_view name);

/// Instantiate every table entry in `registry` at its zero value with its
/// help text, so an exposition lists the full vocabulary even for families
/// that saw no activity. `sophonctl simulate --adapt` prints its final
/// exposition this way.
void register_known_metrics(MetricsRegistry& registry);

/// The epoch-level set fed by core::adapt::run_adaptive's telemetry hooks
/// (a subset of the table; pre-registered separately so library users who
/// never touch the full table still get explicit zeros).
void register_epoch_metrics(MetricsRegistry& registry);

}  // namespace sophon::obs
