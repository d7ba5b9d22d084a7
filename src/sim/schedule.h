// The scheduling core: the one queueing model of a training epoch that every
// simulator and the critical-path analyzer run (paper §3–4). Each sample
// flows admission → storage CPU → FIFO link → compute CPU; each batch then
// takes one GPU step. run_batch_window admits batch b once batch
// b - prefetch_batches has left the GPU; run_worker_lanes admits through W
// synchronous loader workers plus a clairvoyant prefetcher under depth and
// byte credits.
//
// Provenance is a compile-time policy. NoRecord carries bare times and
// leaves no trace: plain runs return their stats and nothing else. Recorder
// keeps each event's parent — the argmax of the scheduling max() — which is
// the DAG the critical-path analyzer walks, plus one visit row per sample
// naming that sample's nodes. It is the one record of an epoch: spans,
// timelines and link utilization are all derived from it (obs/replay_trace.h).
// Tie-breaks decide blame: among equally free cores the lowest-numbered runs
// the job, later(a, b) keeps a unless b is strictly later, and the link
// charges transmission and propagation as two events.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/link.h"
#include "sim/resources.h"
#include "sim/trainer.h"

namespace sophon::sim {

using FlowFn = std::function<SampleFlow(std::size_t)>;

/// What an event waited on. kStart is the root event; kDelay is injected
/// stall (retry backoff) that occupies no resource.
enum class Resource : std::uint8_t {
  kStart = 0,
  kStorageCpu = 1,
  kLink = 2,
  kComputeCpu = 3,
  kGpu = 4,
  kDelay = 5,
};

/// Provenance policy of the plain simulators: an event is its time.
struct NoRecord {
  using Event = double;
  static constexpr bool kRecords = false;
  static double time(Event e) { return e; }
  static Event later(Event a, Event b) { return b > a ? b : a; }
  static Event add(double time, Event, Resource, std::int64_t, std::int64_t) { return time; }
};

/// One recorded event.
struct EventNode {
  double time = 0.0;
  std::int32_t parent = -1;  ///< the event that set `time`
  Resource via = Resource::kStart;
  std::int32_t sample = -1;    ///< catalog sample id (-1 for GPU steps)
  std::int32_t position = -1;  ///< epoch position (GPU steps: the batch's last)
};

/// One sample's pass through the core, as the ids of its recorded nodes.
/// A server's job is [parent.time, node.time] of the node it completed: the
/// transmission node's interval is exactly the link's busy span.
struct Visit {
  std::int32_t issue = 0;          ///< admitted (worker lanes: after injected delay)
  std::int32_t storage_done = 0;   ///< request hop and offloaded prefix done
  std::int32_t transmission = -1;  ///< last byte sent; -1 when served locally
  std::int32_t arrival = 0;        ///< payload landed (served locally: the claim)
  std::int32_t ready = 0;          ///< preprocessing done; names sample and position
  std::int32_t claim = 0;          ///< lane claimed the sample (batch window: root)
  std::int32_t worker = -1;        ///< -1 under batch-window admission
  bool prefetched = false;         ///< issued by the prefetcher, not on demand
  Bytes wire;
};

/// Provenance policy that records the DAG. Node 0 is the root at time 0; the
/// last node is the last GPU step scheduled. Visits follow epoch position
/// (batch window with several jobs: interleaved by batch, as scheduled).
///
/// Before its first event a run reserves the record's bound: at most
/// kNodesPerSample nodes per sample (injected delay, request hop, storage
/// prefix, transmission, propagation, preprocessing), one GPU node per batch
/// and one visit per sample. The record is then allocated once instead of
/// being copied as it doubles, and the pages it never writes are never
/// faulted in. Node ids, sample ids and positions are 32-bit, so a bound past
/// INT32_MAX is a ContractViolation before anything is allocated.
class Recorder {
 public:
  struct Event {
    double time = 0.0;
    std::int32_t node = 0;
  };
  static constexpr bool kRecords = true;
  static constexpr std::size_t kNodesPerSample = 6;

  Recorder() : nodes_(1) {}
  /// Room for `samples` more samples in `batches` more batches.
  void reserve(std::size_t samples, std::size_t batches);
  static double time(Event e) { return e.time; }
  static Event later(Event a, Event b) { return b.time > a.time ? b : a; }
  Event add(double time, Event parent, Resource via, std::int64_t sample, std::int64_t position) {
    nodes_.push_back(EventNode{time, parent.node, via, static_cast<std::int32_t>(sample),
                               static_cast<std::int32_t>(position)});
    return Event{time, static_cast<std::int32_t>(nodes_.size() - 1)};
  }
  void visit(const Visit& visit) { visits_.push_back(visit); }
  [[nodiscard]] const std::vector<EventNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Visit>& visits() const { return visits_; }
  [[nodiscard]] const EventNode& node(std::int32_t id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

 private:
  std::vector<EventNode> nodes_;
  std::vector<Visit> visits_;
};

/// The servers of one epoch: storage pools (one per node or private
/// partition), the shared link, and job j's compute[j] and gpu[j]. Built
/// with one storage pool and job 0's servers.
struct ResourceMap {
  explicit ResourceMap(const ClusterConfig& cluster);

  std::vector<CpuPool> storage;
  net::SimLink link;
  std::vector<CpuPool> compute;
  std::vector<GpuResource> gpu;

  /// Core-seconds of every storage pool, summed in pool order.
  [[nodiscard]] Seconds storage_busy() const;
};

/// One job's epoch.
struct JobLoad {
  std::size_t num_samples = 0;
  /// Pure function of the catalog index; a run evaluates it once per sample.
  const FlowFn* flow = nullptr;
  std::uint64_t seed = 42;  ///< visit order: EpochOrder(num_samples, seed, epoch_index)
  std::size_t epoch_index = 0;
  std::size_t batch_size = 256;
  Seconds gpu_batch_time;
  std::size_t storage_pool = 0;             ///< runs offloaded prefixes, unless `shards`
  std::span<const std::uint16_t> shards{};  ///< per sample: its storage pool; empty: `storage_pool`
};

/// The job of `cluster` alone.
[[nodiscard]] JobLoad single_job(const ClusterConfig& cluster, std::size_t num_samples,
                                 const FlowFn& flow, Seconds gpu_batch_time, std::uint64_t seed,
                                 std::size_t epoch_index);

/// Batch-window admission for `jobs`, interleaved round-robin by batch; each
/// job is charged its own samples' storage core-seconds.
template <class Rec>
std::vector<EpochStats> run_batch_window(Rec& rec, ResourceMap& resources,
                                         std::span<const JobLoad> jobs,
                                         std::size_t prefetch_batches);

/// Worker-lane admission: loader workers plus the prefetcher's credits.
struct WorkerLanes {
  std::size_t workers = 4;
  std::size_t depth = 0;  ///< prefetch credits in samples; 0 = demand only
  Bytes bytes_budget;     ///< credits in staged bytes; 0 = unlimited
  /// Whether a sample earns a prefetch credit (empty: every sample does).
  std::function<bool(std::uint64_t sample, Bytes wire)> admit;
  /// Samples served from compute-local storage: no fetch, no bytes.
  std::function<bool(std::uint64_t sample)> served_locally;
};

/// What the prefetch side of a worker-lane epoch did.
struct LaneStats {
  std::uint64_t issued = 0;          // fetches the prefetcher pipelined
  std::uint64_t hits = 0;            // staged before the worker needed them
  std::uint64_t late_hits = 0;       // worker blocked on an in-flight fetch
  std::uint64_t demand_fetches = 0;  // fetched by workers (skipped/depth 0)
  std::uint64_t served_locally = 0;  // cache hits, no fetch at all
  std::uint64_t skipped_deprioritized = 0;
  Seconds worker_stall;            // total time workers waited on arrivals
  std::uint64_t max_inflight = 0;  // peak concurrent transfers on the link
};

/// Worker-lane admission for job 0; fills `lane_stats` except max_inflight
/// (SimLink tracks that). Requests reach storage one link latency later.
template <class Rec>
EpochStats run_worker_lanes(Rec& rec, ResourceMap& resources, const JobLoad& job,
                            const WorkerLanes& lanes, LaneStats& lane_stats);

}  // namespace sophon::sim
