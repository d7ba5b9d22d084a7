// One epoch's run spec and its discrete-event runs, under either discipline.
//
// The batch-window simulators (sim/trainer.h) admit work a batch window at a
// time; studying prefetch needs the sharper contrast the real loader shows:
// W worker threads, each running one synchronous fetch round trip (request
// latency → storage CPU → FIFO link → response latency) before it can
// preprocess, so link latency serializes behind compute on every sample.
// The worker lanes are the second discipline of the scheduling core
// (sim/schedule.h): the same resources and SampleFlow costs as the batch
// window, with a prefetcher walking the known epoch order under the
// depth/bytes credits the real StagingBuffer enforces, and prefetch::admit
// deciding which samples deserve a credit. Depth 0 is the pure demand
// loader, so one entry point yields both sides of every comparison — same
// flows, same link, byte-identical traffic.
//
// This is the lowest layer that sees both disciplines, so the run spec lives
// here: EpochParams names the cluster, the GPU, the visit order and the
// discipline, and run_epoch/record_epoch schedule it through
// sim::run_single_job, plain or with recording on. The critical-path
// analyzer (obs/critpath) reads the recorded run; the adaptive loop
// (core/adapt) runs the plain one.
#pragma once

#include <cstdint>
#include <functional>

#include "prefetch/options.h"
#include "sim/cluster.h"
#include "sim/schedule.h"
#include "sim/trainer.h"

namespace sophon::prefetch {

struct ReplayOptions {
  PrefetchOptions prefetch;  // depth 0 = demand baseline
  /// Loader worker threads on the compute node (each holds at most one
  /// sample: fetch, then preprocess).
  std::size_t workers = 4;
  /// Optional: sample ids served from compute-local storage (cache hits) —
  /// no wire bytes, no storage CPU, never prefetched.
  std::function<bool(std::uint64_t)> served_locally;
};

/// What the prefetch side of the replay did.
using ReplayStats = sim::LaneStats;

/// One epoch's stats; `prefetch` is filled under worker lanes only.
using ReplayResult = sim::JobRun;

/// Which admission discipline schedules an epoch.
enum class Discipline : std::uint8_t {
  /// Batch-window admission (sim::simulate_epoch_flows), no worker lanes.
  kBatchWindow = 0,
  /// W synchronous workers + clairvoyant prefetch (replay_epoch).
  kWorkerReplay = 1,
};

/// One epoch's run spec: everything needed to schedule it.
struct EpochParams {
  sim::ClusterConfig cluster;
  Seconds gpu_batch_time;
  std::uint64_t seed = 42;
  std::size_t epoch_index = 0;
  std::size_t num_samples = 0;
  Discipline discipline = Discipline::kBatchWindow;
  /// Worker-lane parameters (kWorkerReplay only): workers, prefetch depth /
  /// byte budget / admission inputs, cache-served sample predicate.
  ReplayOptions replay{};
};

/// One epoch scheduled with recording on: the core's DAG and visit rows,
/// plus the stats the plain run reports (`prefetch.max_inflight` stays 0).
struct RecordedEpoch : ReplayResult {
  sim::Recorder record;
};

/// The core's worker-lane admission for `options`: a sample is worth a
/// prefetch credit when prefetch::admit says kPrefetch for its exact payload.
[[nodiscard]] sim::WorkerLanes worker_lanes(const ReplayOptions& options);

/// Schedule `params`' epoch. `demand(i)` gives catalog sample i's resource
/// demands (a pure function of i; composes with sim::faulty_flow); the visit
/// order is the seeded shuffle for (seed, epoch_index), identical to the
/// loader's.
[[nodiscard]] ReplayResult run_epoch(const sim::FlowFn& demand, const EpochParams& params);

/// The same epoch with recording on: the one observable run of the core.
/// Every stat equals run_epoch's but `prefetch.max_inflight`.
[[nodiscard]] RecordedEpoch record_epoch(const sim::FlowFn& demand, const EpochParams& params);

/// run_epoch under worker lanes, with the spec spelled out.
[[nodiscard]] ReplayResult replay_epoch(std::size_t num_samples,
                                        const std::function<sim::SampleFlow(std::size_t)>& flow,
                                        const sim::ClusterConfig& cluster,
                                        Seconds gpu_batch_time, std::uint64_t seed,
                                        std::size_t epoch_index, const ReplayOptions& options);

}  // namespace sophon::prefetch
