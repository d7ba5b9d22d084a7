// Views of one recorded epoch: spans, timelines and link utilization.
//
// A recorded run of the scheduling core (obs::critpath::record_epoch) keeps
// every event with its parent, plus one visit row per sample naming the
// sample's nodes — claim, issue, storage done, transmission, arrival, ready.
// Everything here is derived from that record, so one structure describes an
// epoch:
//   * build_replay_trace translates it into a Trace in the span vocabulary
//     the threaded loader records live, on virtual-time tracks: the link's
//     "transfer" and the GPU's "gpu_batch" spans (a server's job is
//     [parent, node] of the node it completed), a demand fetch as a kFetch
//     stall on the consuming worker's lane, a late prefetch hit as a kStagingWait, and the compute
//     window as a kPreprocess parent subdivided into per-op child spans using
//     the pipeline's analytic costs (supplied by the caller, since the record
//     only knows the summed compute cost). Storage-side prefix executions
//     (their storage-CPU nodes) are laid out greedily onto "storage-N" lanes
//     so spans within a lane never overlap and self-time folding stays
//     exact. EpochReport folds the result into the stall attribution.
//   * link_utilization, mean_latency and timeline_json answer the aggregate
//     questions and export the per-sample rows for external plotting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sim/schedule.h"
#include "util/json.h"
#include "util/units.h"

namespace sophon::obs {

/// Per-sample cost detail the record lacks.
struct SampleOpCosts {
  /// Compute-side (suffix) pipeline ops in execution order: (op name,
  /// analytic cost).
  std::vector<std::pair<std::string, Seconds>> compute_ops;
  /// Offload prefix depth of the directive (-1 = unknown).
  std::int32_t prefix = -1;
};

/// Maps a catalog sample id to its cost detail.
using SampleCostFn = std::function<SampleOpCosts(std::uint32_t sample_index)>;

/// The whole epoch as a Trace in virtual time: link and GPU spans in
/// schedule order, then each worker-lane visit (batch-window visits have no
/// lane and add no worker spans), then the storage lanes. Tracks are
/// numbered in order of their first span, so only tracks that carry spans
/// (or a flow end) are labeled. `costs` may be empty, in which case
/// preprocess spans are emitted whole, without per-op children.
///
/// The flows are the trace's causal arrows: one per prefetched sample
/// (issue on the "prefetch" track -> claim on the consuming worker's lane;
/// ids are position + 1) and one per retried demand fetch (end of the retry
/// backoff -> the successful fetch's completion; ids are position + 2^32).
[[nodiscard]] Trace build_replay_trace(const sim::Recorder& record, const SampleCostFn& costs);

/// Fraction of each `bucket`-long interval the link spent transmitting, from
/// t=0 to the last arrival. Exact: each transfer is its transmission node's
/// [parent, node] interval, as the link served it (fault-stretched, without
/// propagation latency), so the buckets sum to the link's busy time.
[[nodiscard]] std::vector<double> link_utilization(const sim::Recorder& record, Seconds bucket);

/// Mean time from issue to ready — the per-sample pipeline latency.
/// Precondition: the record has visits.
[[nodiscard]] Seconds mean_latency(const sim::Recorder& record);

/// JSON export: an array of per-sample records (times in seconds) for
/// external tooling; `worker` and `claimed_s` only for worker-lane visits.
[[nodiscard]] Json timeline_json(const sim::Recorder& record);

}  // namespace sophon::obs
