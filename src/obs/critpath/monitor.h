// Epoch-boundary bridge between the critical-path analyzer and the metrics
// registry: walks the critical path of each completed epoch's record
// (record_epoch), publishes the blame vector as sophon_critpath_* gauges, and
// counts bottleneck *migrations* — the mid-run resource handoffs (link ->
// gpu after a replan, gpu -> link after a bandwidth drop) — in
// sophon_critpath_bottleneck_migrations.
#pragma once

#include <cstddef>
#include <optional>

#include "obs/critpath/critpath.h"
#include "util/telemetry.h"

namespace sophon::obs::critpath {

class CritPathMonitor {
 public:
  /// `metrics` is borrowed and may be null (analysis still runs; nothing is
  /// published). Not thread-safe: call from the run loop's epoch boundary.
  explicit CritPathMonitor(MetricsRegistry* metrics = nullptr) : metrics_(metrics) {}

  /// Analyze one completed epoch from its record and publish.
  /// `observed_epoch_time` is the run's own measurement for the reconcile
  /// gauge.
  const Analysis& observe_epoch(const sim::Recorder& record, Seconds observed_epoch_time);

  [[nodiscard]] std::size_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] const std::optional<Analysis>& last() const { return last_; }
  /// Dominant resource of the most recent epoch (kStart before any epoch).
  [[nodiscard]] Resource bottleneck() const {
    return last_ ? last_->bottleneck() : Resource::kStart;
  }

 private:
  MetricsRegistry* metrics_;
  std::optional<Analysis> last_;
  std::size_t epochs_ = 0;
  std::uint64_t migrations_ = 0;
};

}  // namespace sophon::obs::critpath
