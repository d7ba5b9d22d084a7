#include "prefetch/scheduler.h"

#include <utility>

#include "obs/trace.h"
#include "prefetch/admission.h"
#include "prefetch/metrics.h"
#include "util/check.h"

namespace sophon::prefetch {

PrefetchScheduler::PrefetchScheduler(net::StorageService& service, const core::OffloadPlan& plan,
                                     std::vector<std::uint32_t> order, Config config)
    : service_(service),
      plan_(plan),
      order_(std::move(order)),
      config_(config),
      buffer_(config.options, config.metrics, config.ledger) {
  SOPHON_CHECK_MSG(config_.options.depth > 0, "a zero-depth scheduler is just overhead");
  SOPHON_CHECK(plan_.size() == 0 || plan_.size() >= order_.size());
  if (config_.metrics != nullptr) register_prefetch_metrics(*config_.metrics);
}

PrefetchScheduler::~PrefetchScheduler() { shutdown(); }

void PrefetchScheduler::start() {
  SOPHON_CHECK_MSG(!started_, "start() may only be called once");
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void PrefetchScheduler::run() {
  if (obs::global_tracer().enabled()) obs::global_tracer().set_thread_label("prefetcher");
  for (std::size_t position = 0; position < order_.size(); ++position) {
    if (stop_.load(std::memory_order_relaxed)) return;

    const std::uint64_t sample_id = order_[position];
    const std::uint8_t prefix =
        plan_.size() == 0 ? std::uint8_t{0} : plan_.prefix(sample_id);

    const Admission decision = admit(config_.options, prefix, std::nullopt);

    // The real path has no catalog, so reservations carry a zero byte
    // estimate; the budget bites once payloads commit.
    const auto reserved =
        buffer_.reserve(position, Bytes(0), /*wait=*/decision == Admission::kPrefetch);
    buffer_.advance_cursor(position + 1);
    switch (reserved) {
      case StagingBuffer::Reserve::kShutdown:
        return;
      case StagingBuffer::Reserve::kConsumed:
        skipped_consumed_.fetch_add(1, std::memory_order_relaxed);
        if (config_.metrics != nullptr) config_.metrics->counter(kSkippedConsumed).increment();
        continue;
      case StagingBuffer::Reserve::kNoCredit:
        skipped_deprioritized_.fetch_add(1, std::memory_order_relaxed);
        if (config_.metrics != nullptr) {
          config_.metrics->counter(kSkippedDeprioritized).increment();
        }
        continue;
      case StagingBuffer::Reserve::kOk:
        break;
    }

    net::FetchRequest request;
    request.sample_id = sample_id;
    request.epoch = config_.epoch;
    request.position = position;
    request.directive.prefix_len = prefix;
    try {
      auto response = [&] {
        obs::Span span(obs::SpanCategory::kFetch, "prefetch_fetch");
        span.args().sample = static_cast<std::int64_t>(sample_id);
        span.args().position = static_cast<std::int64_t>(position);
        span.args().prefix = static_cast<std::int32_t>(prefix);
        span.args().prefetched = 1;
        auto fetched = service_.fetch(request);
        span.args().bytes = static_cast<std::int64_t>(fetched.wire_bytes().count());
        return fetched;
      }();
      issued_.fetch_add(1, std::memory_order_relaxed);
      if (config_.metrics != nullptr) config_.metrics->counter(kIssued).increment();
      buffer_.commit(position, std::move(response));
    } catch (...) {
      // Any failure — FetchError after retries, malformed reply, whatever —
      // releases the slot; the worker's demand fetch (with its own
      // degradation ladder) is the error handler.
      failed_.fetch_add(1, std::memory_order_relaxed);
      if (config_.metrics != nullptr) config_.metrics->counter(kFailed).increment();
      buffer_.fail(position);
    }
  }
}

std::optional<StagingBuffer::Claimed> PrefetchScheduler::claim(std::size_t position) {
  return buffer_.claim(position);
}

Bytes PrefetchScheduler::invalidate(const core::OffloadPlan& plan) {
  return buffer_.evict_unclaimed_if(
      [&](std::size_t position, const net::FetchResponse& response) {
        const std::uint64_t sample_id = order_[position];
        const std::uint8_t prefix =
            plan.size() == 0 ? std::uint8_t{0} : plan.prefix(sample_id);
        return response.stage != prefix;
      });
}

void PrefetchScheduler::shutdown() {
  stop_.store(true, std::memory_order_relaxed);
  buffer_.shutdown();  // wakes a reserve()-blocked run() and claim()-blocked consumers
  if (thread_.joinable()) thread_.join();
}

PrefetchScheduler::Stats PrefetchScheduler::stats() const {
  Stats stats;
  stats.issued = issued_.load(std::memory_order_relaxed);
  stats.hits = buffer_.hits();
  stats.late_hits = buffer_.late_hits();
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.cancelled = buffer_.cancelled();
  stats.skipped_deprioritized = skipped_deprioritized_.load(std::memory_order_relaxed);
  stats.skipped_consumed = skipped_consumed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace sophon::prefetch
