#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) { return seconds_between(from, Clock::now()); }

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_checks;
  ++failed;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

void TimedRegion::start() {
  items_ = 0;
  running_ = true;
  cpu_start_ = process_cpu_seconds();
  start_ = Clock::now();
}

void TimedRegion::stop() {
  stop_ = Clock::now();
  cpu_stop_ = process_cpu_seconds();
  running_ = false;
}

double TimedRegion::wall_seconds() const {
  return running_ ? seconds_since(start_) : seconds_between(start_, stop_);
}

double TimedRegion::rate() const {
  const double wall = wall_seconds();
  return wall > 0.0 ? static_cast<double>(items_) / wall : 0.0;
}

}  // namespace perfbench
