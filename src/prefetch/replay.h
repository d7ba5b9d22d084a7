// Discrete-event replay of an epoch under clairvoyant prefetching.
//
// The batch-window simulators (sim/trainer.h) admit work a batch window at a
// time; studying prefetch needs the sharper contrast the real loader shows:
// W worker threads, each running one synchronous fetch round trip (request
// latency → storage CPU → FIFO link → response latency) before it can
// preprocess, so link latency serializes behind compute on every sample.
// replay_epoch is the worker-lane configuration of the scheduling core
// (sim/schedule.h): the same resources and SampleFlow costs as the
// batch-window simulators, with a prefetcher walking the known epoch order
// under the depth/bytes credits the real StagingBuffer enforces, and
// prefetch::admit deciding which samples deserve a credit. Depth 0 is the
// pure demand loader, so one entry point yields both sides of every
// comparison — same flows, same link, byte-identical traffic.
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

struct ReplayResult {
  sim::EpochStats epoch;
  ReplayStats prefetch;
};

/// The core's worker-lane admission for `options`: a sample is worth a
/// prefetch credit when prefetch::admit says kPrefetch for its exact payload.
[[nodiscard]] sim::WorkerLanes worker_lanes(const ReplayOptions& options);

/// Replay one epoch. `flow(i)` gives catalog sample i's resource demands
/// (same contract as simulate_epoch_flows, composes with sim::faulty_flow);
/// the visit order is the seeded shuffle for (seed, epoch_index), identical
/// to the loader's and the trainer's.
[[nodiscard]] ReplayResult replay_epoch(std::size_t num_samples,
                                        const std::function<sim::SampleFlow(std::size_t)>& flow,
                                        const sim::ClusterConfig& cluster,
                                        Seconds gpu_batch_time, std::uint64_t seed,
                                        std::size_t epoch_index, const ReplayOptions& options);

}  // namespace sophon::prefetch
