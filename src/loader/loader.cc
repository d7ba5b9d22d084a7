#include "loader/loader.h"

#include <tuple>
#include <utility>

#include "dataset/sampler.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "prefetch/metrics.h"
#include "storage/server.h"
#include "util/check.h"

namespace sophon::loader {

DataLoader::DataLoader(net::StorageService& service, const pipeline::Pipeline& pipeline,
                       const core::OffloadPlan& plan, std::size_t num_samples, Options options)
    : service_(service),
      pipeline_(pipeline),
      plan_(plan),
      num_samples_(num_samples),
      options_(options) {
  SOPHON_CHECK(num_samples > 0);
  SOPHON_CHECK(options.num_workers >= 1);
  SOPHON_CHECK(options.queue_capacity >= 1);
  SOPHON_CHECK(plan.size() == 0 || plan.size() == num_samples);
  if (options.metrics != nullptr) {
    // Pre-register so scrapes see explicit zeros before the first failure.
    static_cast<void>(options.metrics->counter("sophon_degraded_samples"));
    static_cast<void>(options.metrics->counter("sophon_loader_fetch_errors"));
    if (options.prefetch.depth > 0) prefetch::register_prefetch_metrics(*options.metrics);
  }
  order_ = dataset::EpochOrder(num_samples, options.seed, options.epoch).order();
}

DataLoader::~DataLoader() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_not_full_.notify_all();
  queue_not_empty_.notify_all();
  // Shut the prefetcher down before joining: a worker blocked in claim() on
  // an in-flight fetch is woken here and sees stopping_ on its next check.
  if (prefetcher_) prefetcher_->shutdown();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void DataLoader::start() {
  SOPHON_CHECK_MSG(!started_, "start() may only be called once");
  started_ = true;
  if (options_.prefetch.depth > 0) {
    prefetch::PrefetchScheduler::Config config;
    config.options = options_.prefetch;
    config.epoch = options_.epoch;
    config.metrics = options_.metrics;
    config.ledger = options_.ledger;
    prefetcher_ =
        std::make_unique<prefetch::PrefetchScheduler>(service_, plan_, order_, config);
    prefetcher_->start();
  }
  workers_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] {
      if (obs::global_tracer().enabled()) {
        obs::global_tracer().set_thread_label("worker-" + std::to_string(w));
      }
      worker_loop();
    });
  }
}

std::pair<net::FetchResponse, bool> DataLoader::fetch_with_degradation(
    net::FetchRequest request) {
  try {
    return {service_.fetch(request), false};
  } catch (const net::FetchError&) {
    if (options_.metrics != nullptr) {
      options_.metrics->counter("sophon_loader_fetch_errors").increment();
    }
    if (request.directive.prefix_len == 0) throw;
    // Demote to "raw bytes, full local pipeline": the raw read path of a
    // storage node usually survives a struggling preprocessing engine, so
    // the epoch keeps moving at the cost of this sample's traffic savings.
    request.directive = net::OffloadDirective{};
    return {service_.fetch(request), true};
  }
}

void DataLoader::worker_loop() {
  for (;;) {
    std::size_t position;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ || next_position_ >= num_samples_) return;
      position = next_position_++;
    }
    try {
      const std::uint64_t sample_id = order_[position];
      const std::size_t prefix = plan_.size() == 0 ? 0 : plan_.prefix(sample_id);

      net::FetchResponse response;
      bool degraded = false;
      bool staged = false;
      if (prefetcher_) {
        // Blocks only while the position is actively in flight; a skipped,
        // failed or not-yet-reached position falls through to demand.
        obs::Span span(obs::SpanCategory::kStagingWait, "staging_wait");
        span.args().sample = static_cast<std::int64_t>(sample_id);
        span.args().position = static_cast<std::int64_t>(position);
        if (auto claimed = prefetcher_->claim(position)) {
          response = std::move(claimed->response);
          staged = true;
          span.args().prefetched = 1;
        } else {
          span.args().prefetched = 0;
          const std::lock_guard<std::mutex> lock(mutex_);
          if (stopping_) return;  // claim was woken by shutdown, not a miss
        }
      }
      if (!staged) {
        net::FetchRequest request;
        request.sample_id = sample_id;
        request.epoch = options_.epoch;
        request.position = position;
        request.directive.prefix_len = static_cast<std::uint8_t>(prefix);
        obs::Span span(obs::SpanCategory::kFetch, "fetch");
        span.args().sample = static_cast<std::int64_t>(sample_id);
        span.args().position = static_cast<std::int64_t>(position);
        span.args().prefix = static_cast<std::int32_t>(prefix);
        std::tie(response, degraded) = fetch_with_degradation(request);
        span.args().bytes = static_cast<std::int64_t>(response.wire_bytes().count());
        span.args().degraded = degraded ? 1 : 0;
        if (options_.ledger != nullptr) {
          // Demand-path recording point. Staged responses were recorded by
          // the staging buffer at commit — never re-recorded here.
          auto cause = obs::TrafficCause::kDemand;
          if (degraded) {
            cause = obs::TrafficCause::kRawFallback;
          } else if (response.provenance == net::FetchResponse::Provenance::kShard) {
            cause = obs::TrafficCause::kShardHit;
          } else if (response.provenance == net::FetchResponse::Provenance::kShardCorrupt) {
            cause = obs::TrafficCause::kShardCorruptRefetch;
          }
          options_.ledger->record(sample_id, response.stage, cause, response.wire_bytes());
        }
      }

      auto payload = net::unpack_response(response);
      SOPHON_CHECK_MSG(payload.has_value(), "malformed fetch response");
      image::Tensor tensor;
      {
        obs::Span span(obs::SpanCategory::kPreprocess, "preprocess");
        span.args().sample = static_cast<std::int64_t>(sample_id);
        span.args().position = static_cast<std::int64_t>(position);
        span.args().prefix = static_cast<std::int32_t>(response.stage);
        span.args().prefetched = staged ? 1 : 0;
        auto finished = pipeline_.run_seeded(
            std::move(*payload), response.stage, pipeline_.size(),
            storage::augmentation_seed(options_.seed, options_.epoch, sample_id));
        tensor = std::get<image::Tensor>(std::move(finished));
      }

      LoadedSample item;
      item.sample_id = sample_id;
      item.position = position;
      item.wire_bytes = response.wire_bytes();
      item.degraded = degraded;
      item.tensor = std::move(tensor);
      if (degraded && options_.metrics != nullptr) {
        options_.metrics->counter("sophon_degraded_samples").increment();
      }

      obs::Span collate_span(obs::SpanCategory::kCollate, "collate");
      collate_span.args().sample = static_cast<std::int64_t>(sample_id);
      collate_span.args().position = static_cast<std::int64_t>(position);
      std::unique_lock<std::mutex> lock(mutex_);
      queue_not_full_.wait(
          lock, [this] { return stopping_ || queue_.size() < options_.queue_capacity; });
      if (stopping_) return;
      traffic_ += item.wire_bytes;
      if (item.degraded) ++degraded_;
      queue_.push_back(std::move(item));
      lock.unlock();
      queue_not_empty_.notify_all();
    } catch (...) {
      // A sample failed even after degradation (or the payload was
      // unusable). Surface the error through next() rather than leaving the
      // consumer blocked on a sample that will never arrive.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!failure_) failure_ = std::current_exception();
        stopping_ = true;
      }
      queue_not_full_.notify_all();
      queue_not_empty_.notify_all();
      return;
    }
  }
}

std::optional<LoadedSample> DataLoader::next() {
  SOPHON_CHECK_MSG(started_, "call start() before next()");
  std::unique_lock<std::mutex> lock(mutex_);
  queue_not_empty_.wait(lock, [this] {
    return stopping_ || !queue_.empty() || delivered_ + queue_.size() >= num_samples_;
  });
  if (failure_) std::rethrow_exception(failure_);
  if (queue_.empty()) return std::nullopt;  // epoch exhausted (or stopping)
  LoadedSample item = std::move(queue_.front());
  queue_.pop_front();
  ++delivered_;
  lock.unlock();
  queue_not_full_.notify_one();
  return item;
}

Bytes DataLoader::traffic() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return traffic_;
}

std::uint64_t DataLoader::degraded_samples() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

std::optional<prefetch::PrefetchScheduler::Stats> DataLoader::prefetch_stats() const {
  if (!prefetcher_) return std::nullopt;
  return prefetcher_->stats();
}

Bytes DataLoader::invalidate_prefetched(const core::OffloadPlan& plan) {
  if (!prefetcher_) return Bytes(0);
  return prefetcher_->invalidate(plan);
}

}  // namespace sophon::loader
