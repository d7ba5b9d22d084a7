// SOPHON's decision metrics.
//
// Stage 1 of the profiler produces a ThroughputProfile (is this workload
// I/O-bound at all?). Stage 2 produces one SampleProfile per sample (where
// is its size minimal, what does reaching that point cost?). The decision
// engine then navigates the four-component EpochCostVector
// (T_G, T_CC, T_CS, T_Net) of §3.2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace sophon::core {

/// Which resource limits the epoch.
enum class Bottleneck { kGpu, kIo, kCpu };

[[nodiscard]] std::string_view bottleneck_name(Bottleneck b);

/// Stage-1 output: sustained throughput of each resource in samples/second,
/// measured over 50 isolated batches each (§3.1).
struct ThroughputProfile {
  double gpu_samples_per_sec = 0.0;
  double io_samples_per_sec = 0.0;
  double cpu_samples_per_sec = 0.0;

  /// The slowest resource is the bottleneck.
  [[nodiscard]] Bottleneck bottleneck() const;

  /// SOPHON only activates offloading for I/O-bound workloads.
  [[nodiscard]] bool io_bound() const { return bottleneck() == Bottleneck::kIo; }
};

/// Stage-2 output for one sample: the sizes and op costs along the pipeline
/// plus the derived offloading quantities of §3.2.
struct SampleProfile {
  std::uint32_t sample_index = 0;
  /// Wire size at each stage (stage 0 = raw), length = #ops + 1.
  std::vector<Bytes> stage_sizes;
  /// Single-core cost of each op, length = #ops.
  std::vector<Seconds> op_costs;
  /// Earliest stage with minimal wire size (0 = never offload).
  std::uint32_t min_stage = 0;
  /// wire(raw) - wire(min_stage); zero when min_stage == 0.
  Bytes reduction;
  /// Cost of ops [0, min_stage) — the storage CPU needed to realise the
  /// reduction.
  Seconds prefix_time;

  /// Offloading efficiency: bytes of traffic saved per second of storage
  /// CPU spent (§3.2). Zero when the sample does not benefit.
  [[nodiscard]] double efficiency() const {
    if (min_stage == 0 || prefix_time.value() <= 0.0) return 0.0;
    return reduction.as_double() / prefix_time.value();
  }

  /// True if offloading this sample reduces traffic at all.
  [[nodiscard]] bool benefits() const { return min_stage > 0 && reduction.count() > 0; }
};

/// The four epoch-level times the decision engine balances (§3.2). All are
/// "if this resource were the only constraint" times for one epoch.
struct EpochCostVector {
  Seconds t_g;    // GPU time
  Seconds t_cc;   // compute-node CPU (total local preprocess / cores)
  Seconds t_cs;   // storage-node CPU (total offloaded preprocess / cores)
  Seconds t_net;  // link time (total traffic / bandwidth)

  /// The largest component — the predicted epoch bottleneck.
  [[nodiscard]] Seconds predominant() const;

  /// Is the network the predominant component? (Strictly greater than every
  /// other component; the paper stops offloading when this ceases to hold.)
  [[nodiscard]] bool net_predominant() const;

  /// The bottleneck as a resource class: kIo when the link dominates, kCpu
  /// when either CPU pool does, kGpu otherwise. Ties resolve GPU > IO > CPU,
  /// mirroring ThroughputProfile::bottleneck().
  [[nodiscard]] Bottleneck bottleneck() const;

  /// A coarse epoch-time prediction: the bottleneck resource's time. Used
  /// by FastFlow-style coarse planning and by the decision engine's
  /// exact-minimiser variant.
  [[nodiscard]] Seconds predicted_epoch_time() const { return predominant(); }
};

/// T_G: the GPU time of one epoch over `num_samples` samples, one
/// `gpu_batch_time` step per batch of `batch_size` (a partial last batch
/// costs a full step). Every planner and the run loop derive T_G here.
[[nodiscard]] Seconds gpu_epoch_time(std::size_t num_samples, std::size_t batch_size,
                                     Seconds gpu_batch_time);

}  // namespace sophon::core
