#include "sim/resources.h"

#include <algorithm>

#include "util/check.h"

namespace sophon::sim {

CpuPool::CpuPool(int cores, double speed_factor) : cores_(cores), speed_factor_(speed_factor) {
  SOPHON_CHECK(cores >= 0);
  SOPHON_CHECK(speed_factor > 0.0);
  reset();
}

Seconds CpuPool::schedule(Seconds ready, Seconds duration) {
  SOPHON_CHECK_MSG(can_schedule(), "scheduling on a zero-core pool");
  SOPHON_CHECK(duration.value() >= 0.0);
  const double scaled = duration.value() / speed_factor_;
  // Re-key the top core and sift it down: one pass instead of a pop + push.
  const std::pair<double, int> item{std::max(ready.value(), free_at_.front().first) + scaled,
                                    free_at_.front().second};
  const double done = item.first;
  std::size_t i = 0;
  for (std::size_t child = 1; child < free_at_.size(); child = 2 * i + 1) {
    if (child + 1 < free_at_.size() && free_at_[child + 1] < free_at_[child]) ++child;
    if (!(free_at_[child] < item)) break;
    free_at_[i] = free_at_[child];
    i = child;
  }
  free_at_[i] = item;
  busy_ += Seconds(scaled);
  last_completion_ = std::max(last_completion_, Seconds(done));
  return Seconds(done);
}

Seconds CpuPool::makespan() const {
  return last_completion_;
}

void CpuPool::reset() {
  free_at_.clear();
  for (int i = 0; i < cores_; ++i) free_at_.emplace_back(0.0, i);
  busy_ = Seconds(0.0);
  last_completion_ = Seconds(0.0);
}

Seconds GpuResource::schedule(Seconds ready, Seconds batch_time) {
  SOPHON_CHECK(batch_time.value() >= 0.0);
  const Seconds start = std::max(ready, free_at_);
  free_at_ = start + batch_time;
  busy_ += batch_time;
  return free_at_;
}

void GpuResource::reset() {
  free_at_ = Seconds(0.0);
  busy_ = Seconds(0.0);
}

}  // namespace sophon::sim
