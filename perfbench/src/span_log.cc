#include "span_log.h"

#include <atomic>
#include <unordered_map>

namespace perfbench {

namespace {

// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

SpanLog::Scope SpanLog::span(const char* name, std::int64_t sample) {
  return Scope(enabled_ ? this : nullptr, name, sample);
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::int64_t sample) : log_(log) {
  if (log_ == nullptr) return;
  record_.name = name;
  record_.sample = sample;
  record_.thread = thread_index();
  {
    const std::lock_guard<std::mutex> lock(log_->mutex_);
    record_.id = log_->next_id_++;
  }
  record_.parent = open_spans.empty() ? -1 : open_spans.back();
  open_spans.push_back(record_.id);
  record_.start_s = seconds_since(log_->origin_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  record_.end_s = seconds_since(log_->origin_);
  open_spans.pop_back();
  log_->finish(record_);
}

void SpanLog::finish(Record record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<SpanLog::Record> SpanLog::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& r : records_) {
    if (name == r.name) out.push_back(r.duration_ms());
  }
  return out;
}

std::map<std::string, double> SpanLog::self_ms() const {
  const auto all = records();
  std::unordered_map<std::int64_t, double> child_ms;
  for (const auto& r : all) {
    if (r.parent >= 0) child_ms[r.parent] += r.duration_ms();
  }
  std::map<std::string, double> out;
  for (const auto& r : all) {
    const auto it = child_ms.find(r.id);
    out[r.name] += r.duration_ms() - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

}  // namespace perfbench
