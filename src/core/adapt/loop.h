// Multi-epoch training loop over the discrete-event simulator with the
// adaptive re-planner in the driver's seat.
//
// Each epoch runs under the *actual* cluster conditions (a per-epoch
// bandwidth schedule models environment drift — e.g. a mid-run link
// degradation — and an optional fault injector replays fetch faults), while
// the planner only ever sees what it measured. With adapt on, the
// AdaptiveReplanner checks drift at every epoch boundary and may swap the
// plan; with adapt off the initial plan runs the whole job — the static
// baseline every adaptive result is compared against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/adapt/adapt.h"
#include "dataset/catalog.h"
#include "net/fault.h"
#include "net/resilience.h"
#include "pipeline/cost_model.h"
#include "pipeline/pipeline.h"
#include "prefetch/replay.h"

namespace sophon::obs {
class TrafficLedger;
}  // namespace sophon::obs

namespace sophon::core::adapt {

/// One epoch of an adaptive (or static) run.
struct EpochRow {
  std::size_t epoch = 0;
  double actual_mbps = 0.0;        // link the epoch really ran at
  std::uint64_t plan_generation = 0;  // plan in force during this epoch
  std::size_t offloaded = 0;       // offloaded samples in that plan
  Seconds epoch_time;
  Bytes traffic;
  std::uint64_t retries = 0;
  std::size_t degraded = 0;
  /// The boundary decision taken after this epoch (kNoDrift for static
  /// runs, which never consult the replanner).
  ReplanDecision decision;
};

/// Observers wired into the run loop. Everything is optional and
/// observational: absent hooks cost nothing (acceptance-pinned by
/// bench/trace_overhead), present hooks never change the simulation.
struct TelemetryHooks {
  /// Receives the epoch-level gauge/counter set (sophon_epoch_*,
  /// sophon_epochs_completed) at each epoch boundary.
  MetricsRegistry* metrics = nullptr;
  /// Per-cause traffic attribution (obs/ledger.h): every epoch's wire
  /// bytes are recorded per sample (demand / retry / raw-fallback under
  /// fault replay) and the books are closed at each boundary —
  /// ledger->end_epoch reconciles against the epoch's link bytes and
  /// publishes sophon_ledger_* into the registry the ledger was built with.
  /// Plans carry their decide_offloading traffic forecast into the ledger's
  /// savings table.
  obs::TrafficLedger* ledger = nullptr;
};

struct RunOptions {
  std::size_t epochs = 8;
  /// false = static baseline: keep the initial plan for the whole run.
  bool adapt = true;
  AdaptOptions adapt_options;
  /// Actual link bandwidth per epoch. Empty = the planned bandwidth holds.
  std::function<Bandwidth(std::size_t epoch)> bandwidth_at;
  /// Initial plan; null = run the greedy decision under the spec's cluster
  /// first.
  std::shared_ptr<const OffloadPlan> initial_plan;
  /// Optional fetch-fault replay (see sim::faulty_flow); degraded samples
  /// surface in the observation the replanner sees.
  const net::FaultInjector* faults = nullptr;
  net::RetryPolicy retry;
  TelemetryHooks telemetry;
};

struct RunResult {
  std::vector<EpochRow> rows;
  std::size_t replans = 0;
  std::shared_ptr<const OffloadPlan> final_plan;
};

/// Run `options.epochs` simulated epochs of the run `spec` describes. Its
/// cluster is the one the initial plan is calibrated against; each epoch
/// runs a copy with only the bandwidth (`bandwidth_at`) and the epoch index
/// changed. The spec must describe `catalog` under the batch-window
/// discipline.
[[nodiscard]] RunResult run_adaptive(const dataset::Catalog& catalog,
                                     const pipeline::Pipeline& pipeline,
                                     const pipeline::CostModel& cost_model,
                                     const prefetch::EpochParams& spec,
                                     const RunOptions& options = {});

}  // namespace sophon::core::adapt
