// Simulated compute resources.
//
// A CpuPool is a work-conserving c-server queue over a simulated clock:
// jobs start on the earliest-free core no earlier than their ready time.
// This is the discrete-event backbone for both the storage node's and the
// compute node's preprocessing CPUs.
#pragma once

#include <utility>
#include <vector>

#include "util/units.h"

namespace sophon::sim {

class CpuPool {
 public:
  /// A pool with `cores` identical cores. `speed_factor` scales job
  /// durations (>1 = faster CPU), supporting the heterogeneous-CPU
  /// extension of the paper's §6. Zero cores is allowed — such a pool can
  /// never schedule work (callers must check can_schedule()).
  explicit CpuPool(int cores, double speed_factor = 1.0);

  [[nodiscard]] int cores() const { return cores_; }
  [[nodiscard]] double speed_factor() const { return speed_factor_; }
  [[nodiscard]] bool can_schedule() const { return cores_ > 0; }

  /// Schedule a single-core job of `duration` that becomes ready at `ready`.
  /// It runs on the earliest-free core; among cores free at the same time,
  /// the lowest-numbered one. Returns its completion time. Precondition:
  /// can_schedule().
  Seconds schedule(Seconds ready, Seconds duration);

  /// The core the next schedule() call will run on, in [0, cores()).
  /// Precondition: can_schedule().
  [[nodiscard]] int next_core() const { return free_at_.front().second; }

  /// Cumulative core-busy seconds (after speed scaling).
  [[nodiscard]] Seconds busy_time() const { return busy_; }

  /// Completion time of the last-finishing core so far.
  [[nodiscard]] Seconds makespan() const;

  void reset();

 private:
  int cores_;
  double speed_factor_;
  // Binary min-heap of (next-free time, core); the pairs are distinct, so
  // the top is the same core whatever order the heap keeps.
  std::vector<std::pair<double, int>> free_at_;
  Seconds busy_;
  Seconds last_completion_;
};

/// The GPU as a FIFO batch-service resource.
class GpuResource {
 public:
  GpuResource() = default;

  /// Serve one batch that becomes ready at `ready`; returns completion.
  Seconds schedule(Seconds ready, Seconds batch_time);

  [[nodiscard]] Seconds busy_time() const { return busy_; }
  [[nodiscard]] Seconds free_at() const { return free_at_; }

  void reset();

 private:
  Seconds free_at_;
  Seconds busy_;
};

}  // namespace sophon::sim
