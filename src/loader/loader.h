// Multi-worker data loader over the real fetch path.
//
// The compute-node counterpart of a PyTorch DataLoader: worker threads walk
// one epoch's shuffled order, fetch each sample from the storage service
// (carrying its offload directive), finish the remaining pipeline ops
// locally, and hand ready tensors to the training loop through a bounded
// queue. Augmentation uses the shared (seed, epoch, sample) streams, so the
// produced tensors are bit-identical to single-threaded execution — worker
// count only changes delivery order, never content.
//
// Failure handling: when a fetch throws net::FetchError (after the
// resilience layer's retries, if one is wired in), the worker degrades
// gracefully — it demotes the sample's offload directive to "raw bytes, full
// local pipeline" and re-fetches, so a struggling storage-side preprocessing
// engine costs traffic savings instead of stalling the epoch. Degraded
// samples are still bit-identical (cut-invariant augmentation). Only when
// the raw fetch also fails does the loader stop; the error then surfaces as
// an exception from next() instead of a wedged worker thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/plan.h"
#include "image/tensor.h"
#include "net/rpc.h"
#include "pipeline/pipeline.h"
#include "prefetch/scheduler.h"
#include "util/telemetry.h"

namespace sophon::loader {

/// One fully preprocessed sample, ready for the GPU.
struct LoadedSample {
  std::uint64_t sample_id = 0;
  std::size_t position = 0;  // index within the epoch's visit order
  image::Tensor tensor;
  Bytes wire_bytes;  // what its fetch cost on the link
  bool degraded = false;  // fetched raw after its offloaded fetch failed
};

class DataLoader {
 public:
  struct Options {
    std::size_t num_workers = 4;
    std::size_t queue_capacity = 64;
    std::uint64_t seed = 0;   // must match the storage server's seed
    std::size_t epoch = 0;
    /// Optional telemetry: reports sophon_degraded_samples and
    /// sophon_loader_fetch_errors counters; with prefetching on, the
    /// scheduler pre-registers and feeds the sophon_prefetch_* set too
    /// (registry must outlive the loader).
    MetricsRegistry* metrics = nullptr;
    /// Optional traffic ledger (obs/ledger.h): the loader records demand-
    /// path wire bytes (cause mapped from the response's provenance and the
    /// degradation flag); staged bytes are recorded by the prefetch
    /// staging buffer at commit, never double-counted here.
    obs::TrafficLedger* ledger = nullptr;
    /// Clairvoyant prefetching over the epoch order: depth > 0 runs a
    /// scheduler thread that stages fetches ahead of the workers (see
    /// src/prefetch/). Tensors stay bit-identical — prefetching changes
    /// when a sample's bytes move, never what the sample becomes. Depth 0
    /// (default) is pure demand fetching.
    prefetch::PrefetchOptions prefetch{};
  };

  /// Borrows everything; keep service/pipeline/plan alive while loading.
  /// `num_samples` bounds the epoch; the plan must cover it (or be empty
  /// for no offloading).
  DataLoader(net::StorageService& service, const pipeline::Pipeline& pipeline,
             const core::OffloadPlan& plan, std::size_t num_samples, Options options);

  /// Joins workers; pending items are discarded.
  ~DataLoader();

  DataLoader(const DataLoader&) = delete;
  DataLoader& operator=(const DataLoader&) = delete;

  /// Spawn the workers. Call exactly once.
  void start();

  /// Block for the next ready sample; nullopt once the epoch is exhausted.
  /// Samples arrive in completion order. Rethrows a worker's failure (e.g.
  /// a fetch that kept failing even after degradation) instead of hanging.
  [[nodiscard]] std::optional<LoadedSample> next();

  /// Total response bytes fetched so far.
  [[nodiscard]] Bytes traffic() const;

  /// Samples delivered via the raw-fetch fallback so far.
  [[nodiscard]] std::uint64_t degraded_samples() const;

  /// Prefetch scheduler counters; nullopt when prefetching is off.
  [[nodiscard]] std::optional<prefetch::PrefetchScheduler::Stats> prefetch_stats() const;

  /// Replan hook: evict staged-but-unclaimed prefetched responses whose
  /// stage no longer matches `plan` (their bytes become prefetch-wasted;
  /// workers re-fetch on demand under the plan the loader was built with).
  /// No-op returning 0 when prefetching is off.
  Bytes invalidate_prefetched(const core::OffloadPlan& plan);

 private:
  void worker_loop();
  /// Fetch + unpack, degrading the directive to raw on FetchError. The
  /// returned flag records whether degradation happened.
  [[nodiscard]] std::pair<net::FetchResponse, bool> fetch_with_degradation(
      net::FetchRequest request);

  net::StorageService& service_;
  const pipeline::Pipeline& pipeline_;
  const core::OffloadPlan& plan_;
  std::size_t num_samples_;
  Options options_;
  std::vector<std::uint32_t> order_;

  std::vector<std::thread> workers_;
  std::unique_ptr<prefetch::PrefetchScheduler> prefetcher_;  // null when depth 0
  bool started_ = false;

  mutable std::mutex mutex_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::deque<LoadedSample> queue_;
  std::size_t next_position_ = 0;   // next epoch position to claim
  std::size_t delivered_ = 0;       // items handed to next()
  Bytes traffic_;
  std::uint64_t degraded_ = 0;
  std::exception_ptr failure_;      // first worker failure, rethrown by next()
  bool stopping_ = false;
};

}  // namespace sophon::loader
