// Clairvoyant prefetch scheduler for the real fetch path.
//
// One background thread walks the epoch's shuffled order — fully known in
// advance, it is a seeded Fisher–Yates permutation — ahead of the loader
// workers, runs each upcoming sample through the admission policy, and
// issues the exact FetchRequest a demand worker would have sent. Completed
// responses land in a StagingBuffer the workers claim from; anything the
// scheduler skipped, failed on, or has not reached yet is fetched on demand
// by the worker, so prefetching can change *when* bytes move but never
// *whether* they move, and a dead prefetcher degrades to the status quo
// rather than a stalled epoch.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/plan.h"
#include "net/rpc.h"
#include "prefetch/options.h"
#include "prefetch/staging_buffer.h"
#include "util/telemetry.h"

namespace sophon::prefetch {

class PrefetchScheduler {
 public:
  struct Config {
    PrefetchOptions options;
    // No seed here on purpose: the scheduler never shuffles — it walks the
    // `order` vector handed to the constructor, which the caller derived
    // from its own (seed, epoch).
    std::uint64_t epoch = 0;
    MetricsRegistry* metrics = nullptr;
    /// Optional traffic ledger; staged bytes are recorded at commit and
    /// reclassified to prefetch-wasted when dropped unclaimed.
    obs::TrafficLedger* ledger = nullptr;
  };

  /// Borrows service/plan/order; keep them alive until shutdown() returns.
  /// `order` is the epoch's visit order (order[position] = sample id) and
  /// must be the same permutation the consumer walks.
  PrefetchScheduler(net::StorageService& service, const core::OffloadPlan& plan,
                    std::vector<std::uint32_t> order, Config config);

  ~PrefetchScheduler();

  PrefetchScheduler(const PrefetchScheduler&) = delete;
  PrefetchScheduler& operator=(const PrefetchScheduler&) = delete;

  /// Spawn the scheduler thread. Call exactly once.
  void start();

  /// Consumer entry point: the staged response for `position`, or nullopt
  /// when the caller should demand-fetch it (skipped, failed, not reached,
  /// or shut down). Blocks only while the position is actively in flight.
  [[nodiscard]] std::optional<StagingBuffer::Claimed> claim(std::size_t position);

  /// Stop scheduling, cancel staged slots, wake all claim()-blocked
  /// consumers, join the thread. Idempotent; called by the destructor.
  void shutdown();

  /// Replan hook: evict staged-but-unclaimed responses whose stage no
  /// longer matches `plan`'s prefix for their sample — their bytes become
  /// prefetch-wasted and the worker demand-fetches under the new plan.
  /// Returns the evicted byte total.
  Bytes invalidate(const core::OffloadPlan& plan);

  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t hits = 0;
    std::uint64_t late_hits = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t skipped_deprioritized = 0;
    std::uint64_t skipped_consumed = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  void run();

  net::StorageService& service_;
  const core::OffloadPlan& plan_;
  std::vector<std::uint32_t> order_;
  Config config_;
  StagingBuffer buffer_;

  std::thread thread_;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> skipped_deprioritized_{0};
  std::atomic<std::uint64_t> skipped_consumed_{0};
};

}  // namespace sophon::prefetch
