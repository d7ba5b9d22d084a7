#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace sophon::obs {

namespace {

constexpr double kNs = 1e-9;

bool is_worker_label(std::string_view label) { return label.rfind("worker", 0) == 0; }

/// Self time per category for one track: spans sorted by (begin asc, end
/// desc) form a properly nested forest (RAII guards guarantee nesting
/// within a thread); a span's self time is its duration minus its direct
/// children's durations.
std::map<SpanCategory, double> fold_track(std::vector<const SpanEvent*>& spans) {
  std::sort(spans.begin(), spans.end(), [](const SpanEvent* a, const SpanEvent* b) {
    if (a->begin_ns != b->begin_ns) return a->begin_ns < b->begin_ns;
    return a->end_ns > b->end_ns;
  });
  std::map<SpanCategory, double> self_ns;
  struct Frame {
    const SpanEvent* span;
    double children_ns;
  };
  std::vector<Frame> stack;
  const auto close_until = [&](std::uint64_t begin_ns) {
    while (!stack.empty() && stack.back().span->end_ns <= begin_ns) {
      const Frame frame = stack.back();
      stack.pop_back();
      const double duration =
          static_cast<double>(frame.span->end_ns - frame.span->begin_ns);
      self_ns[frame.span->category] += std::max(0.0, duration - frame.children_ns);
      if (!stack.empty()) stack.back().children_ns += duration;
    }
  };
  for (const SpanEvent* span : spans) {
    close_until(span->begin_ns);
    stack.push_back(Frame{span, 0.0});
  }
  close_until(~std::uint64_t{0});
  return self_ns;
}

std::string fmt_seconds(Seconds s) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f s", s.value());
  return buffer;
}

}  // namespace

EpochReport EpochReport::build(const Trace& trace, Seconds wall) {
  EpochReport report;
  report.wall_ = wall;

  std::map<std::uint32_t, std::string> label_of(trace.labels.begin(), trace.labels.end());
  std::map<std::uint32_t, std::vector<const SpanEvent*>> by_track;
  std::int64_t transfer_bytes = 0;
  for (const auto& span : trace.spans) {
    by_track[span.track].push_back(&span);
    if (span.category == SpanCategory::kTransfer && span.args.bytes >= 0) {
      transfer_bytes += span.args.bytes;
    }
  }
  report.transfer_bytes_ = Bytes(transfer_bytes);

  double transfer_ns = 0.0;
  double gpu_ns = 0.0;
  double storage_ns = 0.0;
  for (auto& [track, track_spans] : by_track) {
    const auto it = label_of.find(track);
    const std::string label =
        it != label_of.end() ? it->second : "track-" + std::to_string(track);
    auto self_ns = fold_track(track_spans);
    // Storage-side prefix work is t_cs wherever it ran (a loopback fetch
    // executes it on the calling worker's thread).
    if (self_ns[SpanCategory::kStoragePrep] > 0.0) {
      storage_ns += self_ns[SpanCategory::kStoragePrep];
      ++report.storage_tracks_;
    }
    if (is_worker_label(label)) {
      WorkerBreakdown row;
      row.track = track;
      row.label = label;
      row.fetch_stall = Seconds(self_ns[SpanCategory::kFetch] * kNs);
      row.staging_wait = Seconds(self_ns[SpanCategory::kStagingWait] * kNs);
      row.preprocess = Seconds(self_ns[SpanCategory::kPreprocess] * kNs);
      row.collate = Seconds(self_ns[SpanCategory::kCollate] * kNs);
      row.retry = Seconds(self_ns[SpanCategory::kRetry] * kNs);
      row.other = Seconds((self_ns[SpanCategory::kOther] + self_ns[SpanCategory::kGpu]) * kNs);
      row.idle = Seconds(std::max(0.0, (wall - row.accounted()).value()));
      row.spans = track_spans.size();
      report.workers_.push_back(std::move(row));
    } else {
      transfer_ns += self_ns[SpanCategory::kTransfer];
      gpu_ns += self_ns[SpanCategory::kGpu];
    }
  }
  std::sort(report.workers_.begin(), report.workers_.end(),
            [](const WorkerBreakdown& a, const WorkerBreakdown& b) { return a.label < b.label; });
  report.transfer_busy_ = Seconds(transfer_ns * kNs);
  report.gpu_busy_ = Seconds(gpu_ns * kNs);
  report.storage_busy_ = Seconds(storage_ns * kNs);
  return report;
}

Seconds EpochReport::total_fetch_stall() const {
  Seconds total;
  for (const auto& w : workers_) total += w.fetch_stall;
  return total;
}

Seconds EpochReport::total_staging_wait() const {
  Seconds total;
  for (const auto& w : workers_) total += w.staging_wait;
  return total;
}

Seconds EpochReport::total_preprocess() const {
  Seconds total;
  for (const auto& w : workers_) total += w.preprocess;
  return total;
}

Seconds EpochReport::total_retry() const {
  Seconds total;
  for (const auto& w : workers_) total += w.retry;
  return total;
}

EpochReport::Costs EpochReport::observed() const {
  Costs costs;
  costs.t_g = gpu_busy_;
  costs.t_cc = workers_.empty()
                   ? total_preprocess()
                   : total_preprocess() / static_cast<double>(workers_.size());
  costs.t_cs = storage_tracks_ == 0 ? Seconds(0.0)
                                    : storage_busy_ / static_cast<double>(storage_tracks_);
  costs.t_net = transfer_busy_;
  return costs;
}

std::string_view EpochReport::bottleneck_of(const Costs& costs) {
  const Seconds top = std::max({costs.t_g, costs.t_cc, costs.t_cs, costs.t_net});
  if (top == costs.t_net) return "net";
  if (top == costs.t_g) return "gpu";
  if (top == costs.t_cs) return "storage-cpu";
  return "cpu";
}

std::string_view EpochReport::observed_bottleneck() const { return bottleneck_of(observed()); }

void EpochReport::set_predicted(const Costs& predicted) {
  predicted_ = predicted;
  has_predicted_ = true;
}

std::string EpochReport::render() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "epoch stall attribution (wall %.3f s, %zu workers)\n",
                wall_.value(), workers_.size());
  out += line;
  std::snprintf(line, sizeof(line), "  %-10s %12s %13s %12s %9s %9s %9s %6s\n", "worker",
                "fetch-stall", "staging-wait", "preprocess", "collate", "retry", "idle", "spans");
  out += line;
  for (const auto& w : workers_) {
    std::snprintf(line, sizeof(line),
                  "  %-10s %12s %13s %12s %9s %9s %9s %6llu\n", w.label.c_str(),
                  fmt_seconds(w.fetch_stall).c_str(), fmt_seconds(w.staging_wait).c_str(),
                  fmt_seconds(w.preprocess).c_str(), fmt_seconds(w.collate).c_str(),
                  fmt_seconds(w.retry).c_str(), fmt_seconds(w.idle).c_str(),
                  static_cast<unsigned long long>(w.spans));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  link busy %.3f s | storage prefix %.3f s | gpu busy %.3f s\n",
                transfer_busy_.value(), storage_busy_.value(), gpu_busy_.value());
  out += line;
  if (has_predicted_) {
    const Costs obs = observed();
    out += "predicted vs observed cost vector:\n";
    const auto row = [&](const char* name, Seconds p, Seconds o) {
      const double delta =
          p.value() > 0.0 ? 100.0 * (o.value() - p.value()) / p.value() : 0.0;
      std::snprintf(line, sizeof(line), "  %-6s %10.3f s %10.3f s %+8.1f%%\n", name, p.value(),
                    o.value(), delta);
      out += line;
    };
    row("T_G", predicted_.t_g, obs.t_g);
    row("T_CC", predicted_.t_cc, obs.t_cc);
    row("T_CS", predicted_.t_cs, obs.t_cs);
    row("T_Net", predicted_.t_net, obs.t_net);
    const std::string_view predicted_b = bottleneck_of(predicted_);
    const std::string_view observed_b = observed_bottleneck();
    std::snprintf(line, sizeof(line), "  bottleneck: predicted %s, observed %s — %s\n",
                  std::string(predicted_b).c_str(), std::string(observed_b).c_str(),
                  predicted_b == observed_b ? "agreement" : "DIVERGENCE");
    out += line;
  }
  return out;
}

Json EpochReport::to_json() const {
  Json doc = Json::object();
  doc.set("kind", "sophon.epoch_report");
  doc.set("version", 1);
  doc.set("wall_seconds", wall_.value());
  Json workers = Json::array();
  for (const auto& w : workers_) {
    Json row = Json::object();
    row.set("label", w.label);
    row.set("fetch_stall_seconds", w.fetch_stall.value());
    row.set("staging_wait_seconds", w.staging_wait.value());
    row.set("preprocess_seconds", w.preprocess.value());
    row.set("collate_seconds", w.collate.value());
    row.set("retry_seconds", w.retry.value());
    row.set("other_seconds", w.other.value());
    row.set("idle_seconds", w.idle.value());
    row.set("spans", static_cast<std::int64_t>(w.spans));
    workers.push_back(std::move(row));
  }
  doc.set("workers", std::move(workers));
  doc.set("link_busy_seconds", transfer_busy_.value());
  doc.set("link_bytes", static_cast<std::int64_t>(transfer_bytes_.count()));
  doc.set("storage_prefix_seconds", storage_busy_.value());
  doc.set("gpu_busy_seconds", gpu_busy_.value());
  const auto costs_json = [](const Costs& costs) {
    Json c = Json::object();
    c.set("t_g", costs.t_g.value());
    c.set("t_cc", costs.t_cc.value());
    c.set("t_cs", costs.t_cs.value());
    c.set("t_net", costs.t_net.value());
    c.set("bottleneck", std::string(bottleneck_of(costs)));
    return c;
  };
  doc.set("observed", costs_json(observed()));
  if (has_predicted_) doc.set("predicted", costs_json(predicted_));
  return doc;
}

}  // namespace sophon::obs
