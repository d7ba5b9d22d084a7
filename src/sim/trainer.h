// The discrete-event training-epoch simulator.
//
// Reproduces the paper's measurement harness: one epoch of fully pipelined
// training where every sample flows storage-CPU → link → compute-CPU → GPU,
// under a per-sample offload assignment. Epoch time is the makespan of the
// last batch's GPU step; data traffic is everything the link carried.
//
// Model choices (documented in DESIGN.md):
//   * storage reads are free (dataset cached in storage memory, as in §4),
//   * the link is a single FIFO pipe at the configured bandwidth,
//   * both CPU pools are work-conserving multi-server queues over modeled
//     op costs (every policy sees the same deterministic cost model),
//   * the loader admits new samples with a bounded look-ahead window, like
//     a DataLoader with a fixed prefetch depth.
//
// These entry points are the batch-window configurations of the scheduling
// core (sim/schedule.h), which multijob.h, prefetch::replay_epoch and the
// critical-path analyzer configure too; the equations live only there.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "dataset/catalog.h"
#include "dataset/sampler.h"
#include "obs/ledger.h"
#include "pipeline/cost_model.h"
#include "pipeline/pipeline.h"
#include "sim/cluster.h"
#include "util/units.h"

namespace sophon::net {
class FaultInjector;
struct RetryPolicy;
}  // namespace sophon::net

namespace sophon::sim {

/// What one simulated epoch measured.
struct EpochStats {
  Seconds epoch_time;
  Bytes traffic;               // bytes over the inter-cluster link
  Seconds gpu_busy;            // total GPU service time
  double gpu_utilization = 0;  // gpu_busy / epoch_time
  Seconds storage_cpu_busy;    // busy core-seconds of offloaded preprocessing (work / speed)
  Seconds compute_cpu_busy;    // core-seconds of local preprocessing
  std::size_t samples = 0;
  std::size_t batches = 0;
  std::size_t offloaded_samples = 0;
};

/// Per-sample resource demands, the generic currency of the simulator: what
/// the storage node computes, what the compute node finishes, what crosses
/// the link. Extensions (e.g. selective payload compression, fault replay)
/// express themselves as different flows for the same sample. Positional
/// initialisers rely on the field order.
struct SampleFlow {
  Seconds storage_cpu;  // zero means "not offloaded"
  Seconds compute_cpu;
  Bytes wire;
  /// Idle stall charged before the sample enters the pipeline (e.g. retry
  /// backoff replayed from a fault trace). Occupies no resource.
  Seconds delay;
  /// Pipeline stage of the payload on the wire (the offload prefix; 0 =
  /// raw). Pure annotation — the DES ignores it; the traffic ledger uses it
  /// to attribute wire bytes per stage.
  std::uint8_t stage = 0;
};

/// Generic epoch simulation over arbitrary per-sample flows. `flow(i)` must
/// be a pure function of the catalog index `i`.
[[nodiscard]] EpochStats simulate_epoch_flows(
    std::size_t num_samples, const std::function<SampleFlow(std::size_t)>& flow,
    const ClusterConfig& cluster, Seconds gpu_batch_time, std::uint64_t seed,
    std::size_t epoch_index = 0);

/// The flows of an offload assignment: sample `i` runs the first
/// `assignment[i]` pipeline ops on the storage node (prefix cost), ships the
/// stage's wire payload, and finishes the suffix locally. An empty span means
/// no offloading. The returned function borrows every argument.
[[nodiscard]] std::function<SampleFlow(std::size_t)> plan_flow(
    const dataset::Catalog& catalog, const pipeline::Pipeline& pipeline,
    const pipeline::CostModel& cost_model, std::span<const std::uint8_t> assignment);

/// Simulate one training epoch.
///
/// `assignment[i]` is the pipeline prefix length offloaded for catalog
/// sample `i` (0 = fetch raw). An empty span means "no offloading at all".
/// Preconditions: assignment is empty or one entry per catalog sample; any
/// nonzero prefix requires storage_cores > 0.
[[nodiscard]] EpochStats simulate_epoch(const dataset::Catalog& catalog,
                                        const pipeline::Pipeline& pipeline,
                                        const pipeline::CostModel& cost_model,
                                        const ClusterConfig& cluster, Seconds gpu_batch_time,
                                        std::span<const std::uint8_t> assignment,
                                        std::uint64_t seed, std::size_t epoch_index = 0);

/// What replaying a fault trace over one epoch's flows amounted to.
/// Filled by the flow wrapper as the simulator pulls samples.
struct FaultReplayStats {
  std::uint64_t retries = 0;        // failed attempts that were retried
  std::size_t degraded = 0;         // samples demoted to the raw flow
  std::size_t failed = 0;           // samples whose raw fallback also failed
  Seconds backoff;                  // total retry backoff charged as delay
  Bytes wasted_traffic;             // bytes shipped by corrupt attempts
};

/// Wrap a per-sample flow with the same fault semantics the real fetch path
/// has: for each sample, replay the injector's per-attempt draws under the
/// given retry policy. Transient failures charge jittered backoff as delay;
/// corrupt attempts additionally waste a full payload's wire bytes and
/// storage CPU; a permanent fault (retry budget useless) demotes the sample
/// to `raw_flow` — the loader's graceful degradation. `stats` (optional)
/// accumulates the impact; reset it between epochs. The returned flow is a
/// pure function of the index for its *return value*, so it composes with
/// any simulate_epoch_* entry point; `ledger` (optional) is a side channel
/// that attributes the sample's wire bytes per cause (corrupt-attempt bytes
/// as retry, demoted samples as raw-fallback, the rest as demand). It is
/// safe under every entry point of the scheduling core, which evaluates
/// each sample's flow exactly once per run under either discipline.
[[nodiscard]] std::function<SampleFlow(std::size_t)> faulty_flow(
    std::function<SampleFlow(std::size_t)> flow, std::function<SampleFlow(std::size_t)> raw_flow,
    const net::FaultInjector& faults, const net::RetryPolicy& retry, std::size_t epoch_index,
    FaultReplayStats* stats = nullptr, obs::TrafficLedger* ledger = nullptr);

}  // namespace sophon::sim
