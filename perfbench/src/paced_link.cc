#include "paced_link.h"

#include <algorithm>
#include <thread>

namespace perfbench {

PacedLink::PacedLink(sophon::net::StorageService& inner, Options options)
    : inner_(inner), options_(options) {}

sophon::net::FetchResponse PacedLink::fetch(const sophon::net::FetchRequest& request) {
  auto response = inner_.fetch(request);
  const auto bytes = static_cast<std::int64_t>(response.payload.size());
  if (!paced()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.messages;
    stats_.bytes += bytes;
    return response;
  }

  const auto transmit = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(bytes) / options_.bytes_per_second));
  const auto latency = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.latency_seconds));
  Clock::time_point delivered;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto arrival = Clock::now();
    const auto begin = std::max(arrival, free_at_);
    free_at_ = begin + transmit;
    delivered = free_at_ + latency;
    ++stats_.messages;
    stats_.bytes += bytes;
    stats_.busy_seconds += seconds_between(begin, free_at_);
    stats_.queue_wait_seconds.push_back(seconds_between(arrival, begin));
  }
  std::this_thread::sleep_until(delivered);
  return response;
}

PacedLink::Stats PacedLink::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PacedLink::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ = Stats{};
}

}  // namespace perfbench
