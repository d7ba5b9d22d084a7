// Byte-exact traffic ledger: every byte that crosses the storage→trainer
// link is attributed to a (sample, stage, cause) tuple at the single point
// where the byte's fate is decided — the client that consumed (or
// discarded) the response. The cause taxonomy partitions the wire: a byte
// lands in exactly one bucket, so the per-cause totals must sum to the
// SimLink counter at every epoch boundary. That reconciliation invariant is
// hard-failed in tests and published as `sophon_ledger_unattributed_bytes`;
// a non-zero residue means an uninstrumented producer, not measurement
// noise.
//
// Memory is fixed: exact per-cause and per-(stage, cause) totals are flat
// arrays, the per-sample view keeps only a bounded top-K-by-bytes map
// (documented approximation: a sample evicted early that later grows large
// can be missing from top_samples; the cause totals are always exact), and
// per-epoch rows live in a bounded ring. The JSON export is schema-
// versioned so `sophonctl traffic-diff` can compare runs across builds.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/json.h"
#include "util/telemetry.h"
#include "util/units.h"

namespace sophon::obs {

/// Why a byte crossed the link. Exactly one cause per byte.
enum class TrafficCause : std::uint8_t {
  kDemand = 0,            ///< worker fetched it because training needed it now
  kPrefetch,              ///< staged ahead of need and later claimed
  kPrefetchWasted,        ///< staged ahead of need, evicted unclaimed
  kRetry,                 ///< a resilience attempt whose payload was discarded
  kRawFallback,           ///< degradation ladder demoted the fetch to raw
  kShardHit,              ///< served verbatim from a materialized shard
  kShardCorruptRefetch,   ///< shard payload failed crc, re-served live
  kControl,               ///< control-plane / rpc overhead (reserved, zero today)
};
inline constexpr std::size_t kTrafficCauseCount = 8;

/// Stages above this are clamped into the last bucket (real pipelines here
/// have ≤ 8 ops; the clamp keeps the per-stage table a flat array).
inline constexpr std::size_t kLedgerMaxStages = 16;

[[nodiscard]] const char* traffic_cause_name(TrafficCause cause);
[[nodiscard]] std::optional<TrafficCause> traffic_cause_from_name(std::string_view name);

/// One epoch boundary's closing of the books.
struct LedgerReconciliation {
  std::int64_t ledger_bytes = 0;        ///< attributed this epoch (or cumulatively)
  std::int64_t link_bytes = 0;          ///< what the link itself counted
  std::int64_t unattributed_bytes = 0;  ///< link - ledger; negative = over-attributed
  [[nodiscard]] bool exact() const { return unattributed_bytes == 0; }
};

/// Per-epoch row of the ledger ring: cause deltas for that epoch plus the
/// plan forecast active while it ran (-1 when the plan carried none).
struct LedgerEpochRow {
  std::uint64_t epoch = 0;
  std::uint64_t plan_generation = 0;
  std::array<std::int64_t, kTrafficCauseCount> cause_bytes{};
  std::int64_t link_bytes = 0;
  std::int64_t attributed_bytes = 0;
  std::int64_t unattributed_bytes = 0;
  std::int64_t predicted_bytes = -1;  ///< decide_offloading's forecast for the plan
  std::int64_t baseline_bytes = -1;   ///< all-raw traffic the forecast was priced against
};

/// One of the heaviest samples by attributed bytes.
struct LedgerTopSample {
  std::uint64_t sample_id = 0;
  std::int64_t bytes = 0;
  std::array<std::int64_t, kTrafficCauseCount> cause_bytes{};
};

/// The exportable state of a ledger: what `to_json` writes and
/// `from_json` reads back, and what traffic-report / traffic-diff consume.
struct LedgerExport {
  int schema_version = 1;
  std::uint64_t records = 0;
  std::int64_t unattributed_bytes = 0;  ///< residue at the last reconciliation
  std::array<std::int64_t, kTrafficCauseCount> cause_bytes{};
  std::array<std::array<std::int64_t, kTrafficCauseCount>, kLedgerMaxStages> stage_cause_bytes{};
  std::vector<LedgerTopSample> top_samples;  ///< sorted by bytes, descending
  std::vector<LedgerEpochRow> epochs;

  [[nodiscard]] std::int64_t total() const;
  [[nodiscard]] Json to_json() const;
  /// Rejects wrong kind, unknown schema version, or malformed fields.
  [[nodiscard]] static std::optional<LedgerExport> from_json(const Json& doc);
};

/// One cause's byte totals in two runs being diffed.
struct LedgerDiffRow {
  TrafficCause cause = TrafficCause::kDemand;
  std::int64_t bytes_a = 0;
  std::int64_t bytes_b = 0;
  [[nodiscard]] std::int64_t delta() const { return bytes_b - bytes_a; }
};

/// traffic-diff output: causes ranked by |byte delta|, largest first.
struct LedgerDiff {
  std::vector<LedgerDiffRow> rows;
  std::int64_t total_a = 0;
  std::int64_t total_b = 0;
  [[nodiscard]] std::int64_t total_delta() const { return total_b - total_a; }
  [[nodiscard]] bool identical() const;
};

[[nodiscard]] LedgerDiff diff_ledgers(const LedgerExport& a, const LedgerExport& b);

/// Human-readable breakdown: per-cause, per-stage, and the per-epoch
/// predicted-vs-actual savings table when plan forecasts are present.
[[nodiscard]] std::string render_traffic_report(const LedgerExport& exported);
[[nodiscard]] std::string render_traffic_diff(const LedgerDiff& diff);

/// The ledger itself. Thread-safe: producers on loader workers, the
/// prefetch scheduler, and the resilience layer all record concurrently.
/// Recording takes one mutex and a few array adds — no metric registry
/// traffic on the hot path; metrics are published as epoch-boundary deltas
/// so the <3% overhead pin in bench/trace_overhead holds.
class TrafficLedger {
 public:
  struct Options {
    std::size_t top_k = 32;              ///< samples kept in the export
    MetricsRegistry* metrics = nullptr;  ///< optional: sophon_ledger_* at epoch ends
  };

  TrafficLedger() : TrafficLedger(Options{}) {}
  explicit TrafficLedger(Options options);

  /// Attribute `bytes` moved for `sample_id` at pipeline `stage` to `cause`.
  void record(std::uint64_t sample_id, std::uint8_t stage, TrafficCause cause, Bytes bytes);

  /// Move already-recorded bytes from one cause to another (e.g. a staged
  /// sample's kPrefetch bytes become kPrefetchWasted when it is evicted
  /// unclaimed). Keeps the partition: totals never double-count.
  void reclassify(std::uint64_t sample_id, std::uint8_t stage, TrafficCause from,
                  TrafficCause to, Bytes bytes);

  [[nodiscard]] Bytes total() const;
  [[nodiscard]] Bytes total(TrafficCause cause) const;
  [[nodiscard]] Bytes total(TrafficCause cause, std::uint8_t stage) const;
  [[nodiscard]] std::uint64_t records() const;

  /// Attach decide_offloading's traffic forecast for plan `generation`;
  /// epoch rows running under that generation carry it as their receipt.
  void note_plan_forecast(std::uint64_t generation, Bytes baseline, Bytes predicted);

  /// Close the books for one epoch: compute per-cause deltas since the last
  /// boundary, reconcile them against the link's per-epoch byte count,
  /// append an epoch row, and publish sophon_ledger_* metrics. Returns the
  /// epoch's reconciliation (exact() must hold in tests).
  LedgerReconciliation end_epoch(std::uint64_t epoch, Bytes epoch_link_bytes,
                                 std::uint64_t plan_generation);

  /// Cumulative reconciliation against a cumulative link counter (for
  /// callers outside the epoch loop, e.g. the real-loader tests).
  [[nodiscard]] LedgerReconciliation reconcile(Bytes cumulative_link_bytes) const;

  /// Publish sophon_ledger_* to the registry now (end_epoch does this too).
  void publish_metrics();

  [[nodiscard]] LedgerExport export_state() const;

 private:
  struct SampleEntry {
    std::int64_t bytes = 0;
    std::array<std::int64_t, kTrafficCauseCount> cause_bytes{};
  };

  void publish_locked();
  void prune_samples_locked(std::size_t capacity);
  [[nodiscard]] std::int64_t total_locked() const;

  Options options_;
  mutable std::mutex mutex_;
  std::uint64_t records_ = 0;
  std::uint64_t records_published_ = 0;
  std::array<std::int64_t, kTrafficCauseCount> cause_bytes_{};
  std::array<std::array<std::int64_t, kTrafficCauseCount>, kLedgerMaxStages> stage_cause_bytes_{};
  /// Bounded: grows to 2x capacity then prunes the lightest half in one
  /// amortized pass; once full, newcomers no heavier than the heaviest
  /// sample ever pruned (sample_floor_) are skipped in O(1) — record() stays
  /// constant-time on the hot path.
  std::unordered_map<std::uint64_t, SampleEntry> samples_;
  std::int64_t sample_floor_ = 0;
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> forecasts_;  ///< gen -> {baseline, predicted}
  std::vector<LedgerEpochRow> epochs_;  ///< bounded ring, oldest dropped
  std::array<std::int64_t, kTrafficCauseCount> epoch_snapshot_{};  ///< totals at last end_epoch
  std::int64_t link_total_ = 0;          ///< cumulative link bytes seen at boundaries
  std::int64_t unattributed_ = 0;        ///< cumulative link_total_ - attributed-at-boundaries
};

}  // namespace sophon::obs
