// In-memory spans recorded from the benchmark's own code.
//
// Traced runs wrap each call into a layer's public entry point in a span:
// name, start, end, the enclosing span on the same thread (its parent) and
// the sample or query it served. Spans stay in memory until the run ends
// and are then written out with the run's result. A disabled log records
// nothing and costs one branch per scope, so untraced runs are unaffected.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "net/rpc.h"

namespace perfbench {

class SpanLog {
 public:
  struct Record {
    const char* name = "";  // string literal
    std::int64_t id = 0;
    std::int64_t parent = -1;  // -1 for a root span
    std::int64_t sample = -1;  // sample id or query index, -1 when none
    std::uint32_t thread = 0;
    double start_s = 0.0;  // seconds since the log was created
    double end_s = 0.0;

    [[nodiscard]] double duration_ms() const { return (end_s - start_s) * 1e3; }
  };

  /// RAII span: opened by SpanLog::span, recorded when destroyed.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

    void set_sample(std::int64_t sample) { record_.sample = sample; }

   private:
    friend class SpanLog;
    Scope(SpanLog* log, const char* name, std::int64_t sample);

    SpanLog* log_;  // null when the log is disabled
    Record record_;
  };

  explicit SpanLog(bool enabled);

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Only while no other thread uses the log (e.g. between loader epochs).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  [[nodiscard]] Scope span(const char* name, std::int64_t sample = -1);

  [[nodiscard]] std::vector<Record> records() const;
  /// Durations in ms of every span called `name`, in completion order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Per span name: total duration minus the time its direct children
  /// cover, summed over all spans of that name, in ms.
  [[nodiscard]] std::map<std::string, double> self_ms() const;

 private:
  friend class Scope;
  void finish(Record record);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::int64_t next_id_ = 0;
  std::vector<Record> records_;
};

/// A StorageService decorator that wraps every fetch in a span, so traced
/// runs see each layer of the fetch chain as its own span.
class TracedService final : public sophon::net::StorageService {
 public:
  /// Borrows both; keep them alive while the decorator is used.
  TracedService(sophon::net::StorageService& inner, SpanLog& log, const char* name)
      : inner_(inner), log_(log), name_(name) {}

  [[nodiscard]] sophon::net::FetchResponse fetch(
      const sophon::net::FetchRequest& request) override {
    const auto scope = log_.span(name_, static_cast<std::int64_t>(request.sample_id));
    return inner_.fetch(request);
  }

 private:
  sophon::net::StorageService& inner_;
  SpanLog& log_;
  const char* name_;
};

}  // namespace perfbench
