// Bounded staging area between the prefetch scheduler and loader workers.
//
// Flow control is credit-based: the scheduler must reserve() a slot before
// fetching, and a reservation is granted only while (in-flight + ready)
// stays under the depth, staged bytes stay under the budget, and the
// scheduler's lead over the consumer stays inside the horizon. Consumers
// claim() positions in whatever order their workers reach them; a claim on
// an in-flight slot blocks until the fetch commits or fails, a claim on an
// untouched position returns nullopt immediately (demand fallback) and
// leaves a consumed-mark so the scheduler never fetches bytes the demand
// path already moved — the invariant that keeps prefetch traffic identical
// to baseline traffic.
//
// shutdown() (epoch end or loader destruction) cancels everything and wakes
// all waiters; claims after shutdown fall through to the demand path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>

#include "net/message.h"
#include "obs/ledger.h"
#include "prefetch/options.h"
#include "util/telemetry.h"

namespace sophon::prefetch {

class StagingBuffer {
 public:
  /// `metrics` and `ledger` are optional; when set they must outlive the
  /// buffer. The buffer is the single recording point for prefetch-path
  /// wire bytes: commit() records them (cause mapped from the response's
  /// provenance), and any path that drops a staged-but-unclaimed response
  /// (evict, shutdown, commit racing shutdown) reclassifies those
  /// bytes to prefetch-wasted so the ledger partition stays exact.
  StagingBuffer(const PrefetchOptions& options, MetricsRegistry* metrics,
                obs::TrafficLedger* ledger = nullptr);

  enum class Reserve {
    kOk,        ///< Slot reserved; caller must commit() or fail() it.
    kConsumed,  ///< A demand fetch already took this position; skip it.
    kNoCredit,  ///< Non-blocking reserve found no free credit.
    kShutdown,  ///< Buffer is shut down; stop scheduling.
  };

  /// Scheduler side. Reserves `position`, accounting `estimated_bytes`
  /// against the budget until commit() replaces the estimate with the real
  /// payload size. With `wait`, blocks until a credit frees up (or
  /// shutdown); without, returns kNoCredit instead of blocking — the
  /// opportunistic mode deprioritized samples use.
  [[nodiscard]] Reserve reserve(std::size_t position, Bytes estimated_bytes, bool wait);

  /// Completes a reservation with the fetched response and wakes any
  /// consumer blocked on it.
  void commit(std::size_t position, net::FetchResponse response);

  /// Abandons a reservation (fetch failed). The consumer's claim() returns
  /// nullopt and the worker demand-fetches — failures stay silent here.
  void fail(std::size_t position);

  struct Claimed {
    net::FetchResponse response;
    bool late = false;  ///< The consumer had to block on an in-flight fetch.
  };

  /// Consumer side. Returns the staged response for `position`, blocking
  /// while it is in flight. Returns nullopt — demand-fetch it yourself —
  /// when the position was never reserved (leaving a consumed-mark if the
  /// scheduler has not passed it yet), when the fetch failed, or after
  /// shutdown.
  [[nodiscard]] std::optional<Claimed> claim(std::size_t position);

  /// Scheduler bookkeeping: positions below the cursor are decided (fetched
  /// or skipped), so claims on them need no consumed-mark. Monotonic.
  void advance_cursor(std::size_t position);

  /// Cancel all slots, wake all waiters, refuse further traffic.
  void shutdown();

  /// Evict the ready-but-unclaimed slots for which `pred(position, response)`
  /// returns true (their bytes become prefetch-wasted in the ledger) and
  /// return the evicted byte total. In-flight fetches are left alone — their
  /// commit() decides their fate. This is the replan hook: a new plan
  /// invalidates staged responses whose stage no longer matches the plan's
  /// prefix for that sample.
  Bytes evict_unclaimed_if(
      const std::function<bool(std::size_t, const net::FetchResponse&)>& pred);

  // Introspection (tests, scheduler stats).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t late_hits() const;
  [[nodiscard]] std::uint64_t cancelled() const;
  [[nodiscard]] std::size_t staged() const;
  [[nodiscard]] Bytes staged_bytes() const;

 private:
  enum class State { kInFlight, kReady, kFailed, kConsumedMark };

  struct Slot {
    State state = State::kInFlight;
    Bytes bytes;  // estimate while in flight, real payload size once ready
    net::FetchResponse response;
    std::chrono::steady_clock::time_point ready_at;  // set by commit()
    /// Ledger cause the bytes were recorded under at commit() (kReady only).
    obs::TrafficCause cause = obs::TrafficCause::kPrefetch;
  };

  // All helpers below require `mutex_` held.
  [[nodiscard]] bool has_credit(Bytes estimated_bytes) const;
  void update_gauges_locked();

  const PrefetchOptions options_;
  MetricsRegistry* metrics_;
  obs::TrafficLedger* ledger_;

  mutable std::mutex mutex_;
  std::condition_variable credit_cv_;  // scheduler waits for a free credit
  std::condition_variable ready_cv_;   // consumers wait on in-flight slots
  std::map<std::size_t, Slot> slots_;
  std::size_t occupied_ = 0;      // in-flight + ready slots (credits in use)
  Bytes occupied_bytes_;          // their byte accounting
  std::size_t cursor_ = 0;        // first position the scheduler has not decided
  std::size_t max_claimed_ = 0;   // consumer progress, for the horizon bound
  bool claimed_any_ = false;
  bool shutdown_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t late_hits_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace sophon::prefetch
