#include "obs/replay_trace.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/check.h"

namespace sophon::obs {

namespace {

struct StorageSpan {
  Seconds begin;
  Seconds end;
  SpanArgs args;
};

/// The link's "transfer" and the GPU's "gpu_batch" spans, in the order the
/// core scheduled them: each is [parent, node] of the node its server
/// completed, which is the interval SimLink and GpuResource charged.
void add_server_spans(const sim::Recorder& record, Trace& trace) {
  const auto& nodes = record.nodes();
  std::vector<std::int64_t> sent_bytes(nodes.size(), -1);
  for (const sim::Visit& visit : record.visits()) {
    if (visit.transmission >= 0) {
      sent_bytes[static_cast<std::size_t>(visit.transmission)] = visit.wire.count();
    }
  }
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    const sim::EventNode& node = nodes[n];
    const Seconds begin(record.node(node.parent).time);
    if (sent_bytes[n] >= 0) {
      trace.add_virtual_span(trace.track("link"), SpanCategory::kTransfer, "transfer", begin,
                             Seconds(node.time), SpanArgs{.bytes = sent_bytes[n]});
    } else if (node.via == sim::Resource::kGpu) {
      trace.add_virtual_span(trace.track("gpu"), SpanCategory::kGpu, "gpu_batch", begin,
                             Seconds(node.time), SpanArgs{.position = node.position});
    }
  }
}

std::uint64_t virtual_ns(Seconds t) {
  return static_cast<std::uint64_t>(std::max(0.0, t.value()) * 1e9);
}

}  // namespace

Trace build_replay_trace(const sim::Recorder& record, const SampleCostFn& costs) {
  Trace trace;
  add_server_spans(record, trace);
  const auto worker_track = [&](std::int32_t worker) {
    return trace.track("worker-" + std::to_string(worker));
  };

  std::vector<StorageSpan> storage_spans;

  const auto at = [&](std::int32_t node) { return Seconds(record.node(node).time); };
  for (const sim::Visit& visit : record.visits()) {
    if (visit.worker < 0) continue;
    const Seconds claimed = at(visit.claim);
    const Seconds issued = at(visit.issue);
    const Seconds link_done = at(visit.arrival);
    const Seconds ready = at(visit.ready);
    const std::int64_t position = record.node(visit.ready).position;
    const auto sample = static_cast<std::uint32_t>(record.node(visit.ready).sample);

    SpanArgs args;
    args.sample = static_cast<std::int64_t>(sample);
    args.position = position;
    const SampleOpCosts detail = costs ? costs(sample) : SampleOpCosts{};
    args.prefix = detail.prefix;

    if (visit.transmission < 0) {
      args.cache_hit = 1;
    } else {
      args.bytes = static_cast<std::int64_t>(visit.wire.count());
      args.prefetched = visit.prefetched ? 1 : 0;
      if (visit.prefetched) {
        // Prefetched: the worker only waits when the fetch is still in
        // flight at claim time (a late hit).
        if (link_done > claimed) {
          trace.add_virtual_span(worker_track(visit.worker), SpanCategory::kStagingWait,
                                 "staging_wait", claimed, link_done, args);
        }
        // The issue->claim dependency as a visible span on the prefetch
        // scheduler's track plus a flow arrow to the consuming worker.
        const std::uint32_t from = trace.track("prefetch");
        trace.add_virtual_span(from, SpanCategory::kOther, "prefetch_issue", issued, link_done,
                               args);
        trace.flows.push_back(TraceFlow{.id = static_cast<std::uint64_t>(position) + 1,
                                        .name = "prefetch",
                                        .from_track = from,
                                        .from_ns = virtual_ns(issued),
                                        .to_track = worker_track(visit.worker),
                                        .to_ns = virtual_ns(std::max(claimed, link_done))});
      } else {
        // Demand: the worker runs the whole round trip synchronously.
        const std::uint32_t track = worker_track(visit.worker);
        trace.add_virtual_span(track, SpanCategory::kFetch, "fetch", claimed, link_done, args);
        if (issued > claimed) {
          trace.add_virtual_span(track, SpanCategory::kRetry, "retry_backoff", claimed, issued,
                                 args);
          // Arrow from the moment the backoff ladder released the final
          // (successful) attempt to that attempt's completed fetch.
          trace.flows.push_back(
              TraceFlow{.id = (std::uint64_t{1} << 32) + static_cast<std::uint64_t>(position),
                        .name = "retry",
                        .from_track = track,
                        .from_ns = virtual_ns(issued),
                        .to_track = track,
                        .to_ns = virtual_ns(link_done)});
        }
      }
      // The offloaded prefix: [parent, node] of its storage-CPU node.
      if (const sim::EventNode& prep = record.node(visit.storage_done);
          prep.via == sim::Resource::kStorageCpu) {
        storage_spans.push_back(StorageSpan{at(prep.parent), Seconds(prep.time), args});
      }
    }

    // Compute window: [claim-or-arrival, ready]. Per-op children are laid
    // end-to-end finishing at ready; any core-queueing gap lands at the
    // front as parent self time (still preprocess).
    const Seconds start = std::max(claimed, link_done);
    if (ready > start) {
      const std::uint32_t track = worker_track(visit.worker);
      trace.add_virtual_span(track, SpanCategory::kPreprocess, "preprocess", start, ready, args);
      if (!detail.compute_ops.empty()) {
        Seconds total;
        for (const auto& [name, cost] : detail.compute_ops) total += cost;
        const double window = (ready - start).value();
        const double scale =
            total.value() > window && total.value() > 0.0 ? window / total.value() : 1.0;
        Seconds cursor = ready - total * scale;
        for (const auto& [name, cost] : detail.compute_ops) {
          const Seconds op_end = cursor + cost * scale;
          trace.add_virtual_span(track, SpanCategory::kPreprocess, name, cursor, op_end, args);
          cursor = op_end;
        }
      }
    }
  }

  // Lay storage prefix executions onto as few non-overlapping lanes as a
  // left-endpoint greedy needs (exact for fixed intervals), so folding a
  // lane's self time sums to its busy time.
  std::sort(storage_spans.begin(), storage_spans.end(),
            [](const StorageSpan& a, const StorageSpan& b) { return a.begin < b.begin; });
  std::vector<std::pair<std::uint32_t, Seconds>> lanes;  // (track, free-at)
  for (const auto& span : storage_spans) {
    auto lane = std::find_if(lanes.begin(), lanes.end(),
                             [&](const auto& free) { return free.second <= span.begin; });
    if (lane == lanes.end()) {
      lanes.emplace_back(trace.track("storage-" + std::to_string(lanes.size())), span.end);
      lane = std::prev(lanes.end());
    }
    lane->second = span.end;
    trace.add_virtual_span(lane->first, SpanCategory::kStoragePrep, "storage_prefix",
                           span.begin, span.end, span.args);
  }

  return trace;
}

std::vector<double> link_utilization(const sim::Recorder& record, Seconds bucket) {
  SOPHON_CHECK(bucket.value() > 0.0);
  const auto& visits = record.visits();
  if (visits.empty()) return {};
  double horizon = 0.0;
  for (const sim::Visit& visit : visits) {
    horizon = std::max(horizon, record.node(visit.arrival).time);
  }
  const auto buckets = static_cast<std::size_t>(std::ceil(horizon / bucket.value()));
  std::vector<double> busy(std::max<std::size_t>(buckets, 1), 0.0);
  for (const sim::Visit& visit : visits) {
    if (visit.transmission < 0) continue;
    // Spread the transmission interval across the buckets it spans.
    const sim::EventNode& sent = record.node(visit.transmission);
    double start = record.node(sent.parent).time;
    const double end = sent.time;
    while (start < end) {
      const auto b = std::min(static_cast<std::size_t>(start / bucket.value()), busy.size() - 1);
      const double bucket_end = (static_cast<double>(b) + 1.0) * bucket.value();
      const double span = std::min(end, bucket_end) - start;
      busy[b] += span;
      start += span;
      if (span <= 0.0) break;  // numerical guard
    }
  }
  for (auto& fraction : busy) fraction /= bucket.value();
  return busy;
}

Seconds mean_latency(const sim::Recorder& record) {
  const auto& visits = record.visits();
  SOPHON_CHECK(!visits.empty());
  double sum = 0.0;
  for (const sim::Visit& visit : visits) {
    sum += record.node(visit.ready).time - record.node(visit.issue).time;
  }
  return Seconds(sum / static_cast<double>(visits.size()));
}

Json timeline_json(const sim::Recorder& record) {
  Json out = Json::array();
  const auto at = [&](std::int32_t node) { return record.node(node).time; };
  for (const sim::Visit& visit : record.visits()) {
    Json entry = Json::object();
    entry.set("sample", static_cast<std::int64_t>(record.node(visit.ready).sample));
    entry.set("position", static_cast<std::int64_t>(record.node(visit.ready).position));
    entry.set("issued_s", at(visit.issue));
    entry.set("storage_done_s", at(visit.storage_done));
    entry.set("link_done_s", at(visit.arrival));
    entry.set("ready_s", at(visit.ready));
    entry.set("wire_bytes", static_cast<std::int64_t>(visit.wire.count()));
    entry.set("prefetched", visit.prefetched);
    if (visit.worker >= 0) {
      entry.set("worker", static_cast<std::int64_t>(visit.worker));
      entry.set("claimed_s", at(visit.claim));
    }
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace sophon::obs
