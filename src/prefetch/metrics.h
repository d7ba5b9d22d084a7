// Telemetry surface of the prefetch subsystem.
//
// Every metric the scheduler and staging buffer touch is declared here and
// pre-registered by register_prefetch_metrics(), so a scrape taken before
// (or without) any prefetch activity still lists the full set at zero —
// dashboards and alert rules can be written against names that are
// guaranteed to exist. Same convention as the loader's degradation counters.
#pragma once

#include "util/telemetry.h"

namespace sophon::prefetch {

// Counters.
inline constexpr const char* kIssued = "sophon_prefetch_issued";
inline constexpr const char* kHits = "sophon_prefetch_hits";
inline constexpr const char* kLate = "sophon_prefetch_late";
inline constexpr const char* kFailed = "sophon_prefetch_failed";
inline constexpr const char* kCancelled = "sophon_prefetch_cancelled";
inline constexpr const char* kSkippedDeprioritized = "sophon_prefetch_skipped_deprioritized";
inline constexpr const char* kSkippedConsumed = "sophon_prefetch_skipped_consumed";

// Gauges.
inline constexpr const char* kBufferDepth = "sophon_prefetch_buffer_depth";
inline constexpr const char* kBufferBytes = "sophon_prefetch_buffer_bytes";
inline constexpr const char* kBufferBudgetBytes = "sophon_prefetch_buffer_budget_bytes";
inline constexpr const char* kBufferHighwaterBytes = "sophon_prefetch_buffer_highwater_bytes";

// Histograms.
inline constexpr const char* kLeadSeconds = "sophon_prefetch_lead_seconds";

/// Instantiate every prefetch metric in `registry` at its zero value.
void register_prefetch_metrics(MetricsRegistry& registry);

}  // namespace sophon::prefetch
