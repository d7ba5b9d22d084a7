#include "obs/critpath/critpath.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "sim/schedule.h"
#include "util/check.h"

namespace sophon::obs::critpath {

std::string_view resource_name(Resource resource) {
  switch (resource) {
    case Resource::kStart:
      return "start";
    case Resource::kStorageCpu:
      return "storage-cpu";
    case Resource::kLink:
      return "link";
    case Resource::kComputeCpu:
      return "compute-cpu";
    case Resource::kGpu:
      return "gpu";
    case Resource::kDelay:
      return "delay";
  }
  return "unknown";
}

Seconds& BlameVector::slot(Resource resource) {
  switch (resource) {
    case Resource::kStorageCpu:
      return storage_cpu;
    case Resource::kLink:
      return link;
    case Resource::kComputeCpu:
      return compute_cpu;
    case Resource::kGpu:
      return gpu;
    case Resource::kDelay:
    case Resource::kStart:
      break;
  }
  return delay;
}

Resource BlameVector::dominant() const {
  const Seconds top = std::max({link, gpu, storage_cpu, compute_cpu, delay});
  if (top == link) return Resource::kLink;
  if (top == gpu) return Resource::kGpu;
  if (top == storage_cpu) return Resource::kStorageCpu;
  if (top == compute_cpu) return Resource::kComputeCpu;
  return Resource::kDelay;
}

Json BlameVector::to_json() const {
  Json doc = Json::object();
  doc.set("storage_cpu_seconds", storage_cpu.value());
  doc.set("link_seconds", link.value());
  doc.set("compute_cpu_seconds", compute_cpu.value());
  doc.set("gpu_seconds", gpu.value());
  doc.set("delay_seconds", delay.value());
  return doc;
}

namespace {

/// The one discipline dispatcher: `params`' epoch through the core under
/// provenance policy Rec, configured as simulate_epoch_flows (batch window)
/// or replay_epoch (worker lanes) configures it.
template <class Rec>
void schedule_epoch(Rec& rec, const DemandFn& demand, const EpochParams& params,
                    prefetch::ReplayResult& out) {
  sim::ResourceMap resources(params.cluster);
  const sim::JobLoad job = sim::single_job(params.cluster, params.num_samples, demand,
                                           params.gpu_batch_time, params.seed, params.epoch_index);
  if (params.discipline == Discipline::kWorkerReplay) {
    // Only a plain run counts peak in-flight transfers: the record already
    // holds every transfer's interval, and the count costs a sort.
    resources.link.set_track_inflight(!Rec::kRecords);
    out.epoch = sim::run_worker_lanes(rec, resources, job, prefetch::worker_lanes(params.replay),
                                      out.prefetch);
    out.prefetch.max_inflight = resources.link.max_inflight();
  } else {
    out.epoch =
        sim::run_batch_window(rec, resources, {&job, 1}, params.cluster.prefetch_batches).front();
  }
  out.epoch.storage_cpu_busy = resources.storage_busy();
}

}  // namespace

RecordedEpoch record_epoch(const DemandFn& demand, const EpochParams& params) {
  RecordedEpoch out;
  schedule_epoch(out.record, demand, params, out);
  return out;
}

prefetch::ReplayResult run_epoch(const DemandFn& demand, const EpochParams& params) {
  prefetch::ReplayResult out;
  sim::NoRecord plain;
  schedule_epoch(plain, demand, params, out);
  return out;
}

Analysis analyze_epoch(const DemandFn& demand, const EpochParams& params,
                       Seconds observed_epoch_time) {
  return critical_path(record_epoch(demand, params).record, observed_epoch_time);
}

Analysis critical_path(const sim::Recorder& record, Seconds observed_epoch_time) {
  // Walk parents back from the last GPU step: each edge is charged to the
  // resource its later event waited on.
  const auto& nodes = record.nodes();
  const double end = nodes.back().time;
  Analysis analysis;
  analysis.epoch_time = Seconds(end);
  analysis.nodes = nodes.size();
  auto n = static_cast<std::int32_t>(nodes.size() - 1);
  while (n > 0) {
    const sim::EventNode& node = nodes[static_cast<std::size_t>(n)];
    const sim::EventNode& parent = nodes[static_cast<std::size_t>(node.parent)];
    const double edge = node.time - parent.time;
    analysis.blame.slot(node.via) += Seconds(edge);
    if (edge > 0.0) {
      analysis.path.push_back(PathSegment{node.via, Seconds(parent.time), Seconds(node.time),
                                          node.sample, node.position});
    }
    n = node.parent;
  }
  std::reverse(analysis.path.begin(), analysis.path.end());
  analysis.observed_epoch_time = observed_epoch_time;
  if (observed_epoch_time.value() > 0.0) {
    analysis.reconcile_error =
        std::abs(end - observed_epoch_time.value()) / observed_epoch_time.value();
  }
  return analysis;
}

std::string Analysis::render() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "critical path: epoch %.3f s over %zu segments (DAG %zu nodes)\n",
                epoch_time.value(), path.size(), nodes);
  out += line;
  const auto row = [&](Resource r, Seconds seconds) {
    const double pct =
        epoch_time.value() > 0.0 ? 100.0 * seconds.value() / epoch_time.value() : 0.0;
    std::snprintf(line, sizeof(line), "  %-12s %10.3f s  %5.1f%%%s\n",
                  std::string(resource_name(r)).c_str(), seconds.value(), pct,
                  r == bottleneck() ? "  <- bottleneck" : "");
    out += line;
  };
  row(Resource::kStorageCpu, blame.storage_cpu);
  row(Resource::kLink, blame.link);
  row(Resource::kComputeCpu, blame.compute_cpu);
  row(Resource::kGpu, blame.gpu);
  row(Resource::kDelay, blame.delay);
  if (observed_epoch_time.value() > 0.0) {
    std::snprintf(line, sizeof(line),
                  "  reconciles with observed %.3f s (error %.2e)\n",
                  observed_epoch_time.value(), reconcile_error);
    out += line;
  }
  return out;
}

Json Analysis::to_json() const {
  Json doc = Json::object();
  doc.set("kind", "sophon.critpath");
  doc.set("version", 1);
  doc.set("epoch_time_seconds", epoch_time.value());
  if (observed_epoch_time.value() > 0.0) {
    doc.set("observed_epoch_time_seconds", observed_epoch_time.value());
    doc.set("reconcile_error", reconcile_error);
  }
  doc.set("blame", blame.to_json());
  doc.set("bottleneck", std::string(resource_name(bottleneck())));
  doc.set("nodes", static_cast<std::int64_t>(nodes));
  Json segments = Json::array();
  for (const PathSegment& segment : path) {
    Json s = Json::object();
    s.set("resource", std::string(resource_name(segment.via)));
    s.set("begin_seconds", segment.begin.value());
    s.set("end_seconds", segment.end.value());
    if (segment.sample >= 0) s.set("sample", segment.sample);
    if (segment.position >= 0) s.set("position", segment.position);
    segments.push_back(std::move(s));
  }
  doc.set("path", std::move(segments));
  return doc;
}

}  // namespace sophon::obs::critpath
