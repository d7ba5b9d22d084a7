#include "prefetch/staging_buffer.h"

#include <algorithm>
#include <utility>

#include "prefetch/metrics.h"

namespace sophon::prefetch {

namespace {

/// The ledger cause for a staged response: shard-served bytes keep their
/// storage-side identity; everything else staged ahead of need is prefetch.
obs::TrafficCause staged_cause(const net::FetchResponse& response) {
  switch (response.provenance) {
    case net::FetchResponse::Provenance::kShard:
      return obs::TrafficCause::kShardHit;
    case net::FetchResponse::Provenance::kShardCorrupt:
      return obs::TrafficCause::kShardCorruptRefetch;
    case net::FetchResponse::Provenance::kLive:
      break;
  }
  return obs::TrafficCause::kPrefetch;
}

}  // namespace

StagingBuffer::StagingBuffer(const PrefetchOptions& options, MetricsRegistry* metrics,
                             obs::TrafficLedger* ledger)
    : options_(options), metrics_(metrics), ledger_(ledger) {
  if (metrics_ != nullptr) {
    metrics_->gauge(kBufferBudgetBytes).set(static_cast<double>(options_.bytes_budget.count()));
  }
}

bool StagingBuffer::has_credit(Bytes estimated_bytes) const {
  if (occupied_ >= options_.depth) return false;
  if (options_.bytes_budget.count() > 0 && occupied_ > 0 &&
      occupied_bytes_ + estimated_bytes > options_.bytes_budget) {
    // The budget never blocks an empty buffer: one oversized sample must
    // still be prefetchable or the scheduler would wedge on it.
    return false;
  }
  // Horizon: do not run further past the consumer than configured. Before
  // the first claim the consumer is at position 0.
  const std::size_t consumer = claimed_any_ ? max_claimed_ + 1 : 0;
  if (cursor_ > consumer + options_.effective_horizon()) return false;
  return true;
}

void StagingBuffer::update_gauges_locked() {
  if (metrics_ == nullptr) return;
  metrics_->gauge(kBufferDepth).set(static_cast<double>(occupied_));
  metrics_->gauge(kBufferBytes).set(static_cast<double>(occupied_bytes_.count()));
  metrics_->gauge(kBufferHighwaterBytes).set_max(static_cast<double>(occupied_bytes_.count()));
}

StagingBuffer::Reserve StagingBuffer::reserve(std::size_t position, Bytes estimated_bytes,
                                              bool wait) {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (shutdown_) return Reserve::kShutdown;
    if (auto it = slots_.find(position);
        it != slots_.end() && it->second.state == State::kConsumedMark) {
      slots_.erase(it);
      return Reserve::kConsumed;
    }
    if (has_credit(estimated_bytes)) break;
    if (!wait) return Reserve::kNoCredit;
    credit_cv_.wait(lock);
  }
  slots_[position] = Slot{State::kInFlight, estimated_bytes, {}, {}};
  ++occupied_;
  occupied_bytes_ += estimated_bytes;
  update_gauges_locked();
  return Reserve::kOk;
}

void StagingBuffer::commit(std::size_t position, net::FetchResponse response) {
  std::lock_guard lock(mutex_);
  auto it = slots_.find(position);
  if (it == slots_.end() || it->second.state != State::kInFlight) {
    // Raced shutdown: the bytes crossed the wire but no consumer can ever
    // claim them — they are waste, recorded directly (not reclassified,
    // since commit never got to record them under a live cause).
    if (ledger_ != nullptr) {
      ledger_->record(response.sample_id, response.stage,
                      obs::TrafficCause::kPrefetchWasted, response.wire_bytes());
    }
    return;
  }
  occupied_bytes_ -= it->second.bytes;
  it->second.bytes = response.wire_bytes();
  occupied_bytes_ += it->second.bytes;
  it->second.cause = staged_cause(response);
  if (ledger_ != nullptr) {
    // Single recording point for prefetch-path wire bytes: the buffer holds
    // the response and knows its provenance; claim keeps this cause, every
    // unclaimed-drop path reclassifies it to prefetch-wasted.
    ledger_->record(response.sample_id, response.stage, it->second.cause,
                    response.wire_bytes());
  }
  it->second.response = std::move(response);
  it->second.ready_at = std::chrono::steady_clock::now();
  it->second.state = State::kReady;
  update_gauges_locked();
  ready_cv_.notify_all();
  // Byte accounting may have shrunk (estimate > payload): a credit may be free.
  credit_cv_.notify_all();
}

void StagingBuffer::fail(std::size_t position) {
  std::lock_guard lock(mutex_);
  auto it = slots_.find(position);
  if (it == slots_.end() || it->second.state != State::kInFlight) return;
  occupied_bytes_ -= it->second.bytes;
  --occupied_;
  it->second.state = State::kFailed;
  it->second.bytes = Bytes(0);
  update_gauges_locked();
  ready_cv_.notify_all();
  credit_cv_.notify_all();
}

std::optional<StagingBuffer::Claimed> StagingBuffer::claim(std::size_t position) {
  std::unique_lock lock(mutex_);
  if (claimed_any_) {
    max_claimed_ = std::max(max_claimed_, position);
  } else {
    max_claimed_ = position;
    claimed_any_ = true;
  }
  credit_cv_.notify_all();  // consumer progress may widen the horizon

  bool waited = false;
  for (;;) {
    if (shutdown_) return std::nullopt;
    auto it = slots_.find(position);
    if (it == slots_.end()) {
      if (position >= cursor_) {
        // The scheduler has not decided this position yet: mark it consumed
        // so it will not be fetched a second time over the wire.
        slots_[position] = Slot{State::kConsumedMark, Bytes(0), {}, {}};
      }
      return std::nullopt;
    }
    switch (it->second.state) {
      case State::kInFlight:
        waited = true;
        ready_cv_.wait(lock);
        continue;
      case State::kReady: {
        Claimed claimed{std::move(it->second.response), waited};
        const auto ready_at = it->second.ready_at;
        occupied_bytes_ -= it->second.bytes;
        --occupied_;
        slots_.erase(it);
        ++hits_;
        if (waited) ++late_hits_;
        if (metrics_ != nullptr) {
          metrics_->counter(kHits).increment();
          if (waited) metrics_->counter(kLate).increment();
          const auto lead = std::chrono::steady_clock::now() - ready_at;
          metrics_->histogram(kLeadSeconds)
              .observe(Seconds(std::max(0.0, std::chrono::duration<double>(lead).count())));
        }
        update_gauges_locked();
        credit_cv_.notify_all();
        return claimed;
      }
      case State::kFailed:
        slots_.erase(it);
        return std::nullopt;
      case State::kConsumedMark:
        // Same worker position claimed twice cannot happen in the loader;
        // treat it as "not staged" without disturbing the mark.
        return std::nullopt;
    }
  }
}

void StagingBuffer::advance_cursor(std::size_t position) {
  std::lock_guard lock(mutex_);
  cursor_ = std::max(cursor_, position);
  // Consumed-marks below the cursor are moot — the scheduler has already
  // decided those positions — so reap them instead of leaking map entries.
  for (auto it = slots_.begin(); it != slots_.end() && it->first < cursor_;) {
    if (it->second.state == State::kConsumedMark) {
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
}

Bytes StagingBuffer::evict_unclaimed_if(
    const std::function<bool(std::size_t, const net::FetchResponse&)>& pred) {
  std::lock_guard lock(mutex_);
  Bytes evicted;
  for (auto it = slots_.begin(); it != slots_.end();) {
    const Slot& slot = it->second;
    if (slot.state != State::kReady || !pred(it->first, slot.response)) {
      ++it;
      continue;
    }
    // Dropped unclaimed: its bytes, recorded at commit, become waste.
    if (ledger_ != nullptr) {
      ledger_->reclassify(slot.response.sample_id, slot.response.stage, slot.cause,
                          obs::TrafficCause::kPrefetchWasted, slot.bytes);
    }
    evicted += slot.bytes;
    occupied_bytes_ -= slot.bytes;
    --occupied_;
    ++cancelled_;
    if (metrics_ != nullptr) metrics_->counter(kCancelled).increment();
    it = slots_.erase(it);
  }
  if (evicted.count() > 0) {
    update_gauges_locked();
    credit_cv_.notify_all();
  }
  return evicted;
}

void StagingBuffer::shutdown() {
  std::lock_guard lock(mutex_);
  if (shutdown_) return;
  shutdown_ = true;
  for (const auto& [position, slot] : slots_) {
    if (slot.state == State::kInFlight || slot.state == State::kReady) ++cancelled_;
    // Ready slots were recorded at commit; dying unclaimed makes their
    // bytes waste. In-flight slots recorded nothing yet — their racing
    // commit() records waste directly.
    if (slot.state == State::kReady && ledger_ != nullptr) {
      ledger_->reclassify(slot.response.sample_id, slot.response.stage, slot.cause,
                          obs::TrafficCause::kPrefetchWasted, slot.bytes);
    }
  }
  if (metrics_ != nullptr && cancelled_ > 0) {
    metrics_->counter(kCancelled).increment(cancelled_);
  }
  slots_.clear();
  occupied_ = 0;
  occupied_bytes_ = Bytes(0);
  update_gauges_locked();
  ready_cv_.notify_all();
  credit_cv_.notify_all();
}

std::uint64_t StagingBuffer::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::uint64_t StagingBuffer::late_hits() const {
  std::lock_guard lock(mutex_);
  return late_hits_;
}

std::uint64_t StagingBuffer::cancelled() const {
  std::lock_guard lock(mutex_);
  return cancelled_;
}

std::size_t StagingBuffer::staged() const {
  std::lock_guard lock(mutex_);
  return occupied_;
}

Bytes StagingBuffer::staged_bytes() const {
  std::lock_guard lock(mutex_);
  return occupied_bytes_;
}

}  // namespace sophon::prefetch
