#include "obs/ledger.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"
#include "util/table.h"

namespace sophon::obs {
namespace {

constexpr std::size_t kMaxEpochRows = 512;
/// Sample-map capacity: a multiple of top_k so eviction pressure rarely
/// drops a sample that would have made the final top-K cut.
constexpr std::size_t kSampleSlackFactor = 4;
constexpr std::size_t kMinSampleCapacity = 64;

/// Human/export names (issue taxonomy, dashed) indexed by cause.
constexpr std::array<const char*, kTrafficCauseCount> kCauseNames = {
    "demand",    "prefetch",  "prefetch-wasted", "retry",
    "raw-fallback", "shard-hit", "shard-corrupt-refetch", "control",
};

/// Prometheus-conformant metric names (snake case) indexed by cause.
constexpr std::array<const char*, kTrafficCauseCount> kCauseMetricNames = {
    "sophon_ledger_demand_bytes",
    "sophon_ledger_prefetch_bytes",
    "sophon_ledger_prefetch_wasted_bytes",
    "sophon_ledger_retry_bytes",
    "sophon_ledger_raw_fallback_bytes",
    "sophon_ledger_shard_hit_bytes",
    "sophon_ledger_shard_corrupt_refetch_bytes",
    "sophon_ledger_control_bytes",
};

std::size_t cause_index(TrafficCause cause) {
  const auto index = static_cast<std::size_t>(cause);
  SOPHON_CHECK(index < kTrafficCauseCount);
  return index;
}

std::size_t stage_index(std::uint8_t stage) {
  return std::min<std::size_t>(stage, kLedgerMaxStages - 1);
}

Json causes_to_json(const std::array<std::int64_t, kTrafficCauseCount>& bytes) {
  Json obj = Json::object();
  for (std::size_t c = 0; c < kTrafficCauseCount; ++c) obj.set(kCauseNames[c], bytes[c]);
  return obj;
}

bool causes_from_json(const Json& obj, std::array<std::int64_t, kTrafficCauseCount>& out) {
  if (!obj.is_object()) return false;
  for (std::size_t c = 0; c < kTrafficCauseCount; ++c) {
    if (!obj.has(kCauseNames[c]) || !obj.at(kCauseNames[c]).is_number()) return false;
    out[c] = obj.at(kCauseNames[c]).as_int();
  }
  return true;
}

std::string mib_cell(std::int64_t bytes) {
  return strf("%.2f", static_cast<double>(bytes) / (1024.0 * 1024.0));
}

}  // namespace

const char* traffic_cause_name(TrafficCause cause) { return kCauseNames[cause_index(cause)]; }

std::optional<TrafficCause> traffic_cause_from_name(std::string_view name) {
  for (std::size_t c = 0; c < kTrafficCauseCount; ++c) {
    if (name == kCauseNames[c]) return static_cast<TrafficCause>(c);
  }
  return std::nullopt;
}

// --- LedgerExport -----------------------------------------------------------

std::int64_t LedgerExport::total() const {
  std::int64_t sum = 0;
  for (const auto bytes : cause_bytes) sum += bytes;
  return sum;
}

Json LedgerExport::to_json() const {
  Json doc = Json::object();
  doc.set("kind", "sophon.traffic_ledger");
  doc.set("schema_version", std::int64_t{schema_version});
  doc.set("records", static_cast<std::int64_t>(records));
  doc.set("total_bytes", total());
  doc.set("unattributed_bytes", unattributed_bytes);
  doc.set("causes", causes_to_json(cause_bytes));

  Json stages = Json::array();
  for (std::size_t s = 0; s < kLedgerMaxStages; ++s) {
    std::int64_t stage_total = 0;
    for (const auto bytes : stage_cause_bytes[s]) stage_total += bytes;
    if (stage_total == 0) continue;  // sparse: real runs use a handful of stages
    Json row = Json::object();
    row.set("stage", static_cast<std::int64_t>(s));
    row.set("bytes", stage_total);
    row.set("causes", causes_to_json(stage_cause_bytes[s]));
    stages.push_back(std::move(row));
  }
  doc.set("stages", std::move(stages));

  Json samples = Json::array();
  for (const auto& sample : top_samples) {
    Json row = Json::object();
    row.set("sample", static_cast<std::int64_t>(sample.sample_id));
    row.set("bytes", sample.bytes);
    row.set("causes", causes_to_json(sample.cause_bytes));
    samples.push_back(std::move(row));
  }
  doc.set("top_samples", std::move(samples));

  Json epochs_json = Json::array();
  for (const auto& row : epochs) {
    Json e = Json::object();
    e.set("epoch", static_cast<std::int64_t>(row.epoch));
    e.set("plan_generation", static_cast<std::int64_t>(row.plan_generation));
    e.set("link_bytes", row.link_bytes);
    e.set("attributed_bytes", row.attributed_bytes);
    e.set("unattributed_bytes", row.unattributed_bytes);
    e.set("predicted_bytes", row.predicted_bytes);
    e.set("baseline_bytes", row.baseline_bytes);
    e.set("causes", causes_to_json(row.cause_bytes));
    epochs_json.push_back(std::move(e));
  }
  doc.set("epochs", std::move(epochs_json));
  return doc;
}

std::optional<LedgerExport> LedgerExport::from_json(const Json& doc) {
  if (!doc.is_object() || !doc.has("kind") || !doc.at("kind").is_string() ||
      doc.at("kind").as_string() != "sophon.traffic_ledger") {
    return std::nullopt;
  }
  if (!doc.has("schema_version") || !doc.at("schema_version").is_number() ||
      doc.at("schema_version").as_int() != 1) {
    return std::nullopt;
  }
  LedgerExport out;
  if (!doc.has("records") || !doc.at("records").is_number() || !doc.has("causes") ||
      !doc.has("unattributed_bytes") || !doc.at("unattributed_bytes").is_number()) {
    return std::nullopt;
  }
  out.records = static_cast<std::uint64_t>(doc.at("records").as_int());
  out.unattributed_bytes = doc.at("unattributed_bytes").as_int();
  if (!causes_from_json(doc.at("causes"), out.cause_bytes)) return std::nullopt;

  if (doc.has("stages")) {
    const Json& stages = doc.at("stages");
    if (!stages.is_array()) return std::nullopt;
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const Json& row = stages.at(i);
      if (!row.is_object() || !row.has("stage") || !row.has("causes")) return std::nullopt;
      const auto stage = static_cast<std::size_t>(row.at("stage").as_int());
      if (stage >= kLedgerMaxStages) return std::nullopt;
      if (!causes_from_json(row.at("causes"), out.stage_cause_bytes[stage])) return std::nullopt;
    }
  }
  if (doc.has("top_samples")) {
    const Json& samples = doc.at("top_samples");
    if (!samples.is_array()) return std::nullopt;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Json& row = samples.at(i);
      if (!row.is_object() || !row.has("sample") || !row.has("bytes") || !row.has("causes")) {
        return std::nullopt;
      }
      LedgerTopSample sample;
      sample.sample_id = static_cast<std::uint64_t>(row.at("sample").as_int());
      sample.bytes = row.at("bytes").as_int();
      if (!causes_from_json(row.at("causes"), sample.cause_bytes)) return std::nullopt;
      out.top_samples.push_back(std::move(sample));
    }
  }
  if (doc.has("epochs")) {
    const Json& epochs_json = doc.at("epochs");
    if (!epochs_json.is_array()) return std::nullopt;
    for (std::size_t i = 0; i < epochs_json.size(); ++i) {
      const Json& e = epochs_json.at(i);
      if (!e.is_object() || !e.has("epoch") || !e.has("link_bytes") || !e.has("causes")) {
        return std::nullopt;
      }
      LedgerEpochRow row;
      row.epoch = static_cast<std::uint64_t>(e.at("epoch").as_int());
      row.plan_generation =
          e.has("plan_generation") ? static_cast<std::uint64_t>(e.at("plan_generation").as_int())
                                   : 0;
      row.link_bytes = e.at("link_bytes").as_int();
      row.attributed_bytes = e.has("attributed_bytes") ? e.at("attributed_bytes").as_int() : 0;
      row.unattributed_bytes =
          e.has("unattributed_bytes") ? e.at("unattributed_bytes").as_int() : 0;
      row.predicted_bytes = e.has("predicted_bytes") ? e.at("predicted_bytes").as_int() : -1;
      row.baseline_bytes = e.has("baseline_bytes") ? e.at("baseline_bytes").as_int() : -1;
      if (!causes_from_json(e.at("causes"), row.cause_bytes)) return std::nullopt;
      out.epochs.push_back(row);
    }
  }
  return out;
}

// --- diff + rendering -------------------------------------------------------

bool LedgerDiff::identical() const {
  if (total_a != total_b) return false;
  return std::all_of(rows.begin(), rows.end(),
                     [](const LedgerDiffRow& row) { return row.delta() == 0; });
}

LedgerDiff diff_ledgers(const LedgerExport& a, const LedgerExport& b) {
  LedgerDiff diff;
  diff.total_a = a.total();
  diff.total_b = b.total();
  for (std::size_t c = 0; c < kTrafficCauseCount; ++c) {
    LedgerDiffRow row;
    row.cause = static_cast<TrafficCause>(c);
    row.bytes_a = a.cause_bytes[c];
    row.bytes_b = b.cause_bytes[c];
    diff.rows.push_back(row);
  }
  std::stable_sort(diff.rows.begin(), diff.rows.end(),
                   [](const LedgerDiffRow& lhs, const LedgerDiffRow& rhs) {
                     return std::llabs(lhs.delta()) > std::llabs(rhs.delta());
                   });
  return diff;
}

std::string render_traffic_report(const LedgerExport& exported) {
  std::string out;
  const std::int64_t total = exported.total();

  TextTable causes({"cause", "MiB", "share"});
  for (std::size_t c = 0; c < kTrafficCauseCount; ++c) {
    const std::int64_t bytes = exported.cause_bytes[c];
    if (bytes == 0 && static_cast<TrafficCause>(c) == TrafficCause::kControl) continue;
    const double share = total > 0 ? 100.0 * static_cast<double>(bytes) / static_cast<double>(total)
                                   : 0.0;
    causes.add_row({kCauseNames[c], mib_cell(bytes), strf("%.1f%%", share)});
  }
  out += "traffic by cause (total " + mib_cell(total) + " MiB, " +
         std::to_string(exported.records) + " records, unattributed " +
         std::to_string(exported.unattributed_bytes) + " B)\n";
  out += causes.render();

  TextTable stages({"stage", "MiB", "dominant cause"});
  for (std::size_t s = 0; s < kLedgerMaxStages; ++s) {
    std::int64_t stage_total = 0;
    std::size_t dominant = 0;
    for (std::size_t c = 0; c < kTrafficCauseCount; ++c) {
      stage_total += exported.stage_cause_bytes[s][c];
      if (exported.stage_cause_bytes[s][c] > exported.stage_cause_bytes[s][dominant]) dominant = c;
    }
    if (stage_total == 0) continue;
    stages.add_row({std::to_string(s), mib_cell(stage_total), kCauseNames[dominant]});
  }
  if (stages.rows() > 0) {
    out += "\ntraffic by pipeline stage (stage = offload prefix of the fetch)\n";
    out += stages.render();
  }

  if (!exported.epochs.empty()) {
    TextTable epochs({"epoch", "plan", "link MiB", "predicted MiB", "baseline MiB",
                      "saved MiB", "predicted saved", "unattributed B"});
    for (const auto& row : exported.epochs) {
      const bool forecast = row.predicted_bytes >= 0 && row.baseline_bytes >= 0;
      epochs.add_row({std::to_string(row.epoch), std::to_string(row.plan_generation),
                      mib_cell(row.link_bytes),
                      forecast ? mib_cell(row.predicted_bytes) : "-",
                      forecast ? mib_cell(row.baseline_bytes) : "-",
                      forecast ? mib_cell(row.baseline_bytes - row.link_bytes) : "-",
                      forecast ? mib_cell(row.baseline_bytes - row.predicted_bytes) : "-",
                      std::to_string(row.unattributed_bytes)});
    }
    out += "\nplan savings per epoch (saved = all-raw baseline - actual link bytes)\n";
    out += epochs.render();
  }

  if (!exported.top_samples.empty()) {
    TextTable samples({"sample", "MiB", "dominant cause"});
    const std::size_t limit = std::min<std::size_t>(exported.top_samples.size(), 10);
    for (std::size_t i = 0; i < limit; ++i) {
      const auto& sample = exported.top_samples[i];
      std::size_t dominant = 0;
      for (std::size_t c = 1; c < kTrafficCauseCount; ++c) {
        if (sample.cause_bytes[c] > sample.cause_bytes[dominant]) dominant = c;
      }
      samples.add_row({std::to_string(sample.sample_id), mib_cell(sample.bytes),
                       kCauseNames[dominant]});
    }
    out += "\nheaviest samples (top " + std::to_string(limit) + " of the tracked top-K)\n";
    out += samples.render();
  }
  return out;
}

std::string render_traffic_diff(const LedgerDiff& diff) {
  std::string out;
  TextTable table({"cause", "A MiB", "B MiB", "delta MiB"});
  for (const auto& row : diff.rows) {
    table.add_row({traffic_cause_name(row.cause), mib_cell(row.bytes_a), mib_cell(row.bytes_b),
                   strf("%+.2f", static_cast<double>(row.delta()) / (1024.0 * 1024.0))});
  }
  out += "traffic diff, causes ranked by |byte delta| (B - A)\n";
  out += table.render();
  out += strf("total: %s -> %s MiB (%+.2f MiB)\n", mib_cell(diff.total_a).c_str(),
              mib_cell(diff.total_b).c_str(),
              static_cast<double>(diff.total_delta()) / (1024.0 * 1024.0));
  if (diff.identical()) out += "ledgers are byte-identical\n";
  return out;
}

// --- TrafficLedger ----------------------------------------------------------

TrafficLedger::TrafficLedger(Options options) : options_(options) {
  if (options_.top_k == 0) options_.top_k = 1;
  if (options_.metrics != nullptr) {
    // Pre-register so scrapes see explicit zeros before the first epoch.
    for (const char* name : kCauseMetricNames) {
      static_cast<void>(options_.metrics->gauge(name));
    }
    static_cast<void>(options_.metrics->gauge("sophon_ledger_attributed_bytes"));
    static_cast<void>(options_.metrics->gauge("sophon_ledger_unattributed_bytes"));
    static_cast<void>(options_.metrics->counter("sophon_ledger_records"));
  }
}

void TrafficLedger::record(std::uint64_t sample_id, std::uint8_t stage, TrafficCause cause,
                           Bytes bytes) {
  SOPHON_CHECK(bytes.count() >= 0);
  if (bytes.count() == 0) return;
  const std::size_t c = cause_index(cause);
  const std::size_t s = stage_index(stage);
  std::lock_guard<std::mutex> lock(mutex_);
  ++records_;
  cause_bytes_[c] += bytes.count();
  stage_cause_bytes_[s][c] += bytes.count();

  auto it = samples_.find(sample_id);
  if (it == samples_.end()) {
    const std::size_t capacity =
        std::max(kMinSampleCapacity, options_.top_k * kSampleSlackFactor);
    if (samples_.size() >= 2 * capacity) prune_samples_locked(capacity);
    // Once full, a newcomer no heavier than past evictees cannot reach the
    // top-K; skipping it keeps record() O(1). Only the sample view is
    // approximate — the per-cause totals above are always exact.
    if (samples_.size() >= capacity && bytes.count() <= sample_floor_) return;
    it = samples_.emplace(sample_id, SampleEntry{}).first;
  }
  it->second.bytes += bytes.count();
  it->second.cause_bytes[c] += bytes.count();
}

/// Drop the lightest samples until `capacity` remain — one O(n) pass every
/// `capacity` inserts instead of a min-scan per insert.
void TrafficLedger::prune_samples_locked(std::size_t capacity) {
  if (samples_.size() <= capacity) return;
  std::vector<std::pair<std::int64_t, std::uint64_t>> order;  // (bytes, id)
  order.reserve(samples_.size());
  for (const auto& [id, entry] : samples_) order.emplace_back(entry.bytes, id);
  std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(capacity),
                   order.end(), [](const auto& a, const auto& b) {
                     return a.first != b.first ? a.first > b.first : a.second < b.second;
                   });
  for (std::size_t i = capacity; i < order.size(); ++i) {
    sample_floor_ = std::max(sample_floor_, order[i].first);
    samples_.erase(order[i].second);
  }
}

void TrafficLedger::reclassify(std::uint64_t sample_id, std::uint8_t stage, TrafficCause from,
                               TrafficCause to, Bytes bytes) {
  SOPHON_CHECK(bytes.count() >= 0);
  if (bytes.count() == 0 || from == to) return;
  const std::size_t f = cause_index(from);
  const std::size_t t = cause_index(to);
  const std::size_t s = stage_index(stage);
  std::lock_guard<std::mutex> lock(mutex_);
  cause_bytes_[f] -= bytes.count();
  cause_bytes_[t] += bytes.count();
  stage_cause_bytes_[s][f] -= bytes.count();
  stage_cause_bytes_[s][t] += bytes.count();
  const auto it = samples_.find(sample_id);
  if (it != samples_.end()) {
    it->second.cause_bytes[f] -= bytes.count();
    it->second.cause_bytes[t] += bytes.count();
  }
}

std::int64_t TrafficLedger::total_locked() const {
  std::int64_t sum = 0;
  for (const auto bytes : cause_bytes_) sum += bytes;
  return sum;
}

Bytes TrafficLedger::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Bytes(total_locked());
}

Bytes TrafficLedger::total(TrafficCause cause) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Bytes(cause_bytes_[cause_index(cause)]);
}

Bytes TrafficLedger::total(TrafficCause cause, std::uint8_t stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Bytes(stage_cause_bytes_[stage_index(stage)][cause_index(cause)]);
}

std::uint64_t TrafficLedger::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void TrafficLedger::note_plan_forecast(std::uint64_t generation, Bytes baseline,
                                       Bytes predicted) {
  std::lock_guard<std::mutex> lock(mutex_);
  forecasts_[generation] = {baseline.count(), predicted.count()};
  // Bounded like everything else: forecasts for long-dead generations go.
  while (forecasts_.size() > kMaxEpochRows) forecasts_.erase(forecasts_.begin());
}

LedgerReconciliation TrafficLedger::end_epoch(std::uint64_t epoch, Bytes epoch_link_bytes,
                                              std::uint64_t plan_generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  LedgerEpochRow row;
  row.epoch = epoch;
  row.plan_generation = plan_generation;
  std::int64_t attributed = 0;
  for (std::size_t c = 0; c < kTrafficCauseCount; ++c) {
    row.cause_bytes[c] = cause_bytes_[c] - epoch_snapshot_[c];
    attributed += row.cause_bytes[c];
    epoch_snapshot_[c] = cause_bytes_[c];
  }
  row.link_bytes = epoch_link_bytes.count();
  row.attributed_bytes = attributed;
  row.unattributed_bytes = epoch_link_bytes.count() - attributed;
  const auto forecast = forecasts_.find(plan_generation);
  if (forecast != forecasts_.end()) {
    row.baseline_bytes = forecast->second.first;
    row.predicted_bytes = forecast->second.second;
  }
  link_total_ += epoch_link_bytes.count();
  unattributed_ += row.unattributed_bytes;
  if (epochs_.size() >= kMaxEpochRows) epochs_.erase(epochs_.begin());
  epochs_.push_back(row);
  publish_locked();
  return LedgerReconciliation{attributed, row.link_bytes, row.unattributed_bytes};
}

LedgerReconciliation TrafficLedger::reconcile(Bytes cumulative_link_bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t ledger = total_locked();
  return LedgerReconciliation{ledger, cumulative_link_bytes.count(),
                              cumulative_link_bytes.count() - ledger};
}

void TrafficLedger::publish_locked() {
  if (options_.metrics == nullptr) return;
  for (std::size_t c = 0; c < kTrafficCauseCount; ++c) {
    options_.metrics->gauge(kCauseMetricNames[c]).set(static_cast<double>(cause_bytes_[c]));
  }
  options_.metrics->gauge("sophon_ledger_attributed_bytes")
      .set(static_cast<double>(total_locked()));
  // Absolute value: over-attribution (negative residue) is the same class
  // of bug as unattributed bytes and must show in the same gauge.
  options_.metrics->gauge("sophon_ledger_unattributed_bytes")
      .set(static_cast<double>(std::llabs(unattributed_)));
  options_.metrics->counter("sophon_ledger_records")
      .increment(records_ - records_published_);
  records_published_ = records_;
}

void TrafficLedger::publish_metrics() {
  std::lock_guard<std::mutex> lock(mutex_);
  publish_locked();
}

LedgerExport TrafficLedger::export_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  LedgerExport out;
  out.records = records_;
  out.unattributed_bytes = unattributed_;
  out.cause_bytes = cause_bytes_;
  out.stage_cause_bytes = stage_cause_bytes_;
  out.epochs = epochs_;
  for (const auto& [sample_id, entry] : samples_) {
    LedgerTopSample sample;
    sample.sample_id = sample_id;
    sample.bytes = entry.bytes;
    sample.cause_bytes = entry.cause_bytes;
    out.top_samples.push_back(sample);
  }
  // Tie-break on id: the backing table is unordered, the export must not be.
  std::sort(out.top_samples.begin(), out.top_samples.end(),
            [](const LedgerTopSample& a, const LedgerTopSample& b) {
              return a.bytes != b.bytes ? a.bytes > b.bytes : a.sample_id < b.sample_id;
            });
  if (out.top_samples.size() > options_.top_k) out.top_samples.resize(options_.top_k);
  return out;
}

}  // namespace sophon::obs
