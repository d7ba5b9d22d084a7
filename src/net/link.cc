#include "net/link.h"

#include <algorithm>

#include "net/fault.h"
#include "util/check.h"

namespace sophon::net {

SimLink::SimLink(Bandwidth bandwidth, Seconds latency) : bandwidth_(bandwidth), latency_(latency) {
  SOPHON_CHECK(bandwidth.bps() > 0.0);
  SOPHON_CHECK(latency.value() >= 0.0);
}

Seconds SimLink::schedule(Seconds ready, Bytes size) {
  SOPHON_CHECK(size.count() >= 0);
  const Seconds start = std::max(ready, free_at_);
  Seconds duration = bandwidth_.transfer_time(size);
  Seconds extra_latency;
  if (faults_ != nullptr) {
    const LinkFault fault = faults_->link_fault(transfer_index_++);
    if (fault.bandwidth_factor != 1.0 || fault.extra_latency.value() > 0.0) ++faulted_;
    duration = duration * fault.bandwidth_factor;
    extra_latency = fault.extra_latency;
  }
  free_at_ = start + duration;
  busy_ += duration;
  traffic_ += size;
  const Seconds arrival = free_at_ + latency_ + extra_latency;
  if (track_inflight_) inflight_.emplace_back(ready.value(), arrival.value());
  return arrival;
}

std::uint64_t SimLink::max_inflight() const {
  // Sweep the interval endpoints: +1 at each ready, -1 at each arrival.
  std::vector<std::pair<double, int>> events;
  events.reserve(inflight_.size() * 2);
  for (const auto& [ready, arrival] : inflight_) {
    events.emplace_back(ready, +1);
    events.emplace_back(arrival, -1);
  }
  // Ties resolve departures first so a back-to-back handoff does not count
  // as overlap.
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  std::uint64_t current = 0;
  std::uint64_t peak = 0;
  for (const auto& [time, delta] : events) {
    if (delta > 0) {
      ++current;
      peak = std::max(peak, current);
    } else {
      --current;
    }
  }
  return peak;
}

void SimLink::reset() {
  free_at_ = Seconds(0.0);
  traffic_ = Bytes(0);
  busy_ = Seconds(0.0);
  transfer_index_ = 0;
  faulted_ = 0;
  inflight_.clear();
}

}  // namespace sophon::net
