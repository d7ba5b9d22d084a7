#include "core/metrics.h"

#include <algorithm>

#include "util/check.h"

namespace sophon::core {

Seconds gpu_epoch_time(std::size_t num_samples, std::size_t batch_size, Seconds gpu_batch_time) {
  SOPHON_CHECK(batch_size > 0);
  const std::size_t batches = (num_samples + batch_size - 1) / batch_size;
  return gpu_batch_time * static_cast<double>(batches);
}

std::string_view bottleneck_name(Bottleneck b) {
  switch (b) {
    case Bottleneck::kGpu:
      return "GPU";
    case Bottleneck::kIo:
      return "IO";
    case Bottleneck::kCpu:
      return "CPU";
  }
  return "Unknown";
}

Bottleneck ThroughputProfile::bottleneck() const {
  SOPHON_CHECK(gpu_samples_per_sec > 0.0 && io_samples_per_sec > 0.0 &&
               cpu_samples_per_sec > 0.0);
  // Ties break toward the GPU (no offloading) — a tie means offloading has
  // no headroom to exploit anyway.
  if (gpu_samples_per_sec <= io_samples_per_sec && gpu_samples_per_sec <= cpu_samples_per_sec)
    return Bottleneck::kGpu;
  if (io_samples_per_sec <= cpu_samples_per_sec) return Bottleneck::kIo;
  return Bottleneck::kCpu;
}

Seconds EpochCostVector::predominant() const {
  return std::max({t_g, t_cc, t_cs, t_net});
}

bool EpochCostVector::net_predominant() const {
  return t_net > t_g && t_net > t_cc && t_net > t_cs;
}

Bottleneck EpochCostVector::bottleneck() const {
  const Seconds cpu = std::max(t_cc, t_cs);
  if (t_g >= t_net && t_g >= cpu) return Bottleneck::kGpu;
  if (t_net >= cpu) return Bottleneck::kIo;
  return Bottleneck::kCpu;
}

}  // namespace sophon::core
