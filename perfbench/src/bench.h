// Shared vocabulary of the benchmark: arguments, the result every workload
// returns, and the measurement helpers (wall-clock regions, quantiles,
// process CPU and memory).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point from, Clock::time_point to);
[[nodiscard]] double seconds_since(Clock::time_point from);

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` is filled by every run,
/// `per_layer` by traced runs; main prints the one the run asked for.
struct Result {
  std::uint64_t attempted = 0;  // closed-loop operations issued
  std::uint64_t failed = 0;     // degraded fetches + failed checks
  std::uint64_t failed_checks = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  [[nodiscard]] bool correct() const { return failed_checks == 0; }

  /// Record one correctness check; a miss counts as a failed operation.
  void check(bool ok, const std::string& what);
};

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process, in MB (1e6 bytes).
[[nodiscard]] double peak_rss_mb();

/// The timed region of a run. Throughput is items completed divided by the
/// region's *wall-clock* seconds, so time the consumer spends blocked counts
/// in full; dividing by the consumer thread's CPU time instead overstates a
/// blocking consumer's rate by orders of magnitude.
class TimedRegion {
 public:
  void start();
  void add(std::uint64_t items) { items_ += items; }
  void stop();

  /// Wall seconds since start() while running, of [start, stop] after.
  [[nodiscard]] double wall_seconds() const;
  /// Process CPU seconds spent over [start, stop].
  [[nodiscard]] double cpu_seconds() const { return cpu_stop_ - cpu_start_; }
  [[nodiscard]] std::uint64_t items() const { return items_; }
  /// items() / wall_seconds().
  [[nodiscard]] double rate() const;

 private:
  Clock::time_point start_{};
  Clock::time_point stop_{};
  bool running_ = false;
  double cpu_start_ = 0.0;
  double cpu_stop_ = 0.0;
  std::uint64_t items_ = 0;
};

}  // namespace perfbench
