// Critical-path analysis of a completed simulated epoch.
//
// The stall reports (obs/report.h) answer "where did each worker's time
// go?" in aggregate; once the pipeline overlaps fetch, transfer, and
// preprocessing, aggregate busy fractions no longer say which resource to
// buy — a link that is 90% busy off the critical path costs nothing. The
// analyzer here runs an epoch's per-sample resource demands through the
// scheduling core every simulator runs (sim/schedule.h) — the batch window of
// sim::simulate_epoch_flows or the worker lanes of prefetch::replay_epoch —
// with recording on (record_epoch): every scheduling event keeps the
// predecessor event that made it wait — the admission window, the previous
// transfer on the FIFO link, the earliest-free CPU core, the GPU's previous
// batch, an injected retry/backoff delay. That record is also what the
// trace, timeline and utilization views read (obs/replay_trace.h).
//
// Walking parents back from the final GPU completion yields the epoch
// critical path: a chain of edges that tiles [0, epoch_time] exactly, each
// edge charged to one resource. Summing edge lengths per resource is the
// *blame vector* — the seconds each resource contributed to the epoch, the
// quantity that tells you which knob to turn. The analyzed schedule is the
// simulator's own, so the path end time equals the simulator's epoch time by
// construction; the reconcile error against an observed epoch time measures
// how far the captured demands drifted from the run being explained.
//
// whatif.h builds on this: perturb the resource parameters, run the core
// again, and rank the projected epoch times.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "prefetch/replay.h"
#include "sim/cluster.h"
#include "sim/schedule.h"
#include "util/json.h"
#include "util/units.h"

namespace sophon::obs::critpath {

/// What a critical-path edge waited on (sim::Resource). kStart is the epoch
/// origin (root node only); kDelay is injected pre-pipeline stall (retry
/// backoff under fault replay), which occupies no physical resource.
using Resource = sim::Resource;

[[nodiscard]] std::string_view resource_name(Resource resource);

/// One sample's resource demands: the simulators' own currency, so
/// SampleDemand{storage_cpu, compute_cpu, wire, delay} builds one. Under
/// fault replay, capture the demands *after* sim::faulty_flow fattened them
/// (delay holds the backoff, wire the corrupt-attempt waste) so the analyzer
/// schedules the same epoch the simulator ran.
using SampleDemand = sim::SampleFlow;

/// Maps a catalog sample index to its demands. A run evaluates each sample
/// once under either discipline; it must still be pure, because the what-if
/// engine re-runs the same demands under every scenario.
using DemandFn = sim::FlowFn;

/// Which discrete-event discipline produced the epoch being analyzed.
enum class Discipline : std::uint8_t {
  /// sim::simulate_epoch_flows — batch-window admission, no worker lanes.
  kBatchWindow = 0,
  /// prefetch::replay_epoch — W synchronous workers + clairvoyant prefetch.
  kWorkerReplay = 1,
};

/// Everything the analyzer needs to schedule an epoch.
struct EpochParams {
  sim::ClusterConfig cluster;
  Seconds gpu_batch_time;
  std::uint64_t seed = 42;
  std::size_t epoch_index = 0;
  std::size_t num_samples = 0;
  Discipline discipline = Discipline::kBatchWindow;
  /// Worker-lane parameters (kWorkerReplay only): workers, prefetch depth /
  /// byte budget / admission inputs, cache-served sample predicate.
  prefetch::ReplayOptions replay;
};

/// Seconds each resource contributed to the critical path. The components
/// sum to the epoch time exactly (the path tiles [0, epoch_time]).
struct BlameVector {
  Seconds storage_cpu;
  Seconds link;
  Seconds compute_cpu;
  Seconds gpu;
  Seconds delay;

  [[nodiscard]] Seconds total() const {
    return storage_cpu + link + compute_cpu + gpu + delay;
  }
  Seconds& slot(Resource resource);
  [[nodiscard]] Json to_json() const;
  /// Largest component; ties resolve link > gpu > storage > compute > delay,
  /// mirroring EpochReport::bottleneck_of's net-first order.
  [[nodiscard]] Resource dominant() const;
};

/// One edge of the critical path, in forward time order. begin == the
/// previous segment's end; the first segment begins at 0 and the last ends
/// at the epoch time.
struct PathSegment {
  Resource via = Resource::kStart;
  Seconds begin;
  Seconds end;
  std::int64_t sample = -1;    ///< catalog sample id (-1 for GPU batch edges)
  std::int64_t position = -1;  ///< epoch position (GPU edges: closing position)
};

/// The analyzer's output for one epoch.
struct Analysis {
  Seconds epoch_time;          ///< analyzed epoch end (== blame.total())
  BlameVector blame;
  Seconds observed_epoch_time; ///< what the real run measured (0 = not given)
  /// |analyzed - observed| / observed; 0 when demands were captured
  /// faithfully. Anything near 1% means the inputs drifted from the run.
  double reconcile_error = 0.0;
  std::size_t nodes = 0;       ///< dependency-DAG size
  std::vector<PathSegment> path;  ///< zero-length edges elided

  [[nodiscard]] Resource bottleneck() const { return blame.dominant(); }
  [[nodiscard]] std::string render() const;
  [[nodiscard]] Json to_json() const;
};

/// One epoch scheduled with recording on: the core's DAG and visit rows,
/// plus the stats the plain run reports (`prefetch` under worker lanes only;
/// its max_inflight stays 0, since each visit holds its transfer's interval).
struct RecordedEpoch : prefetch::ReplayResult {
  sim::Recorder record;
};

/// Schedule one epoch with recording on: the one observable run of the core.
[[nodiscard]] RecordedEpoch record_epoch(const DemandFn& demand, const EpochParams& params);

/// The same epoch without recording: what sim::simulate_epoch_flows or
/// prefetch::replay_epoch computes for `params`' discipline.
[[nodiscard]] prefetch::ReplayResult run_epoch(const DemandFn& demand, const EpochParams& params);

/// Decompose a recorded epoch's critical path. `observed_epoch_time` is the
/// simulator's (or run's) own epoch time for the reconcile check; pass zero
/// to skip it.
[[nodiscard]] Analysis critical_path(const sim::Recorder& record,
                                     Seconds observed_epoch_time = Seconds(0.0));

/// record_epoch, then critical_path.
[[nodiscard]] Analysis analyze_epoch(const DemandFn& demand, const EpochParams& params,
                                     Seconds observed_epoch_time = Seconds(0.0));

}  // namespace sophon::obs::critpath
