// Epoch stall attribution: fold a span trace into a DS-Analyzer-style
// breakdown of where each worker's epoch went.
//
// EpochReport::build() walks the spans of each track and attributes *self
// time* — a span's duration minus the durations of spans nested inside it —
// to the span's category, so an outer demand-fetch span that encloses the
// storage-side prefix execution (loopback RPC) charges only the wire-and-
// wait portion to "fetch". Tracks labeled "worker*" become per-worker rows
// of fetch-stall / staging-wait / preprocess / collate / idle, with idle
// defined as wall-clock minus everything accounted; non-worker tracks
// (link, gpu, storage, prefetch) contribute the aggregate busy times the
// observed cost vector is folded from.
//
// set_predicted() attaches the §3.2 EpochCostVector the decision engine
// computed ahead of the run; render()/to_json() then report component-wise
// predicted-vs-observed divergence and whether the two agree on the epoch's
// bottleneck — the first-class artifact that turns "the run was slow" into
// "the link was predicted dominant but workers actually stalled on decode".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/json.h"
#include "util/units.h"

namespace sophon::obs {

/// One worker lane's epoch, split by span category. All components are
/// summed self time except idle (= wall - accounted, clamped at zero).
struct WorkerBreakdown {
  std::uint32_t track = 0;
  std::string label;
  Seconds fetch_stall;
  Seconds staging_wait;
  Seconds preprocess;
  Seconds collate;
  Seconds retry;  ///< backoff between failed fetch attempts (resilience ladder)
  Seconds other;
  Seconds idle;
  std::uint64_t spans = 0;

  [[nodiscard]] Seconds accounted() const {
    return fetch_stall + staging_wait + preprocess + collate + retry + other;
  }
  /// accounted + idle; equals the wall clock whenever accounted <= wall.
  [[nodiscard]] Seconds total() const { return accounted() + idle; }
};

class EpochReport {
 public:
  /// The four predicted/observed epoch components of §3.2 (mirrors
  /// core::EpochCostVector without depending on it).
  struct Costs {
    Seconds t_g;
    Seconds t_cc;
    Seconds t_cs;
    Seconds t_net;
  };

  /// Fold the spans of `trace` against its labels (flows are ignored).
  /// Tracks whose label starts with "worker" become WorkerBreakdown rows;
  /// `wall` is the epoch's wall-clock (or virtual makespan) time.
  [[nodiscard]] static EpochReport build(const Trace& trace, Seconds wall);

  [[nodiscard]] const std::vector<WorkerBreakdown>& workers() const { return workers_; }
  [[nodiscard]] Seconds wall() const { return wall_; }

  /// Aggregate busy time on non-worker tracks, by category.
  [[nodiscard]] Seconds transfer_busy() const { return transfer_busy_; }
  [[nodiscard]] Seconds gpu_busy() const { return gpu_busy_; }
  [[nodiscard]] Seconds storage_busy() const { return storage_busy_; }

  /// Bytes summed from every kTransfer span's args — the trace's own link
  /// byte count, reconcilable against sophon_epoch_traffic_bytes and the
  /// traffic ledger's total (spans whose bytes were never annotated are
  /// skipped).
  [[nodiscard]] Bytes transfer_bytes() const { return transfer_bytes_; }

  /// Sum over workers of one component.
  [[nodiscard]] Seconds total_fetch_stall() const;
  [[nodiscard]] Seconds total_staging_wait() const;
  [[nodiscard]] Seconds total_preprocess() const;
  [[nodiscard]] Seconds total_retry() const;

  /// The cost vector as this trace observed it: t_net = link busy,
  /// t_cs = storage-side prefix busy averaged over the tracks that ran it,
  /// t_cc = worker preprocess averaged over worker lanes, t_g = gpu busy.
  [[nodiscard]] Costs observed() const;

  /// "net" | "cpu" | "gpu" | "storage-cpu" — the largest observed component.
  [[nodiscard]] std::string_view observed_bottleneck() const;

  /// Attach the decision engine's prediction for divergence reporting.
  void set_predicted(const Costs& predicted);
  [[nodiscard]] const Costs& predicted() const { return predicted_; }
  [[nodiscard]] static std::string_view bottleneck_of(const Costs& costs);

  /// Human-readable report (per-worker table + reconciliation block).
  [[nodiscard]] std::string render() const;

  /// Machine-readable form of the same (kind "sophon.epoch_report").
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<WorkerBreakdown> workers_;
  Seconds wall_;
  Seconds transfer_busy_;
  Seconds gpu_busy_;
  Seconds storage_busy_;
  std::size_t storage_tracks_ = 0;  // tracks that carried storage-prep self-time
  Bytes transfer_bytes_;
  Costs predicted_;
  bool has_predicted_ = false;
};

}  // namespace sophon::obs
