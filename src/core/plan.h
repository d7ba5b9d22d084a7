// The offload plan: one pipeline-prefix directive per catalog sample — the
// artifact a policy produces and the trainer consumes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/units.h"

namespace sophon::core {

/// decide_offloading's traffic receipt for a plan: what one epoch under
/// this plan is predicted to move over the link, against the all-raw
/// baseline. The traffic ledger pairs it with the measured per-epoch link
/// bytes so every replan carries a predicted-vs-actual savings row.
struct PlanTrafficForecast {
  Bytes baseline;    ///< one epoch fetched raw (prefix 0 everywhere)
  Bytes predicted;   ///< one epoch under this plan's prefixes
  /// predicted bytes broken down by the stage shipped (index = prefix).
  std::vector<Bytes> per_stage;
};

class OffloadPlan {
 public:
  OffloadPlan() = default;

  /// A plan covering `num_samples` samples, all initially not offloaded.
  explicit OffloadPlan(std::size_t num_samples);

  /// A uniform plan: every sample offloads the same prefix.
  static OffloadPlan uniform(std::size_t num_samples, std::uint8_t prefix_len);

  [[nodiscard]] std::size_t size() const { return assignment_.size(); }

  void set(std::size_t sample_index, std::uint8_t prefix_len);
  [[nodiscard]] std::uint8_t prefix(std::size_t sample_index) const;

  /// The raw per-sample directive vector, in catalog order (what
  /// sim::simulate_epoch takes).
  [[nodiscard]] const std::vector<std::uint8_t>& assignment() const { return assignment_; }

  /// Number of samples with a nonzero prefix.
  [[nodiscard]] std::size_t offloaded_count() const;

  /// Fraction of samples offloaded.
  [[nodiscard]] double offloaded_fraction() const;

  /// Attach / read the decision engine's traffic forecast. Optional: plans
  /// built by hand (tests, uniform baselines) carry none.
  void set_traffic_forecast(PlanTrafficForecast forecast);
  [[nodiscard]] const std::optional<PlanTrafficForecast>& traffic_forecast() const {
    return forecast_;
  }

 private:
  std::vector<std::uint8_t> assignment_;
  std::optional<PlanTrafficForecast> forecast_;
};

}  // namespace sophon::core
