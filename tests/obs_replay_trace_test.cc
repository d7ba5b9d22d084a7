#include "obs/replay_trace.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/fault.h"
#include "prefetch/replay.h"
#include "sim/trainer.h"
#include "util/check.h"

namespace sophon::obs {
namespace {

using prefetch::Discipline;
using prefetch::EpochParams;
using prefetch::RecordedEpoch;

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(800), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  sim::ClusterConfig cluster = [] {
    sim::ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(200.0);
    c.batch_size = 64;
    return c;
  }();

  // Uniform assignments by prefix length, kept alive for the flows.
  std::map<std::uint8_t, std::vector<std::uint8_t>> uniform;

  sim::FlowFn flows(std::uint8_t prefix) {
    const auto& assignment = uniform.try_emplace(prefix, catalog.size(), prefix).first->second;
    return sim::plan_flow(catalog, pipe, cm, assignment);
  }

  EpochParams params(Seconds gpu_batch_time,
                     Discipline discipline = Discipline::kBatchWindow) const {
    EpochParams p;
    p.cluster = cluster;
    p.gpu_batch_time = gpu_batch_time;
    p.num_samples = catalog.size();
    p.discipline = discipline;
    p.replay.prefetch.depth = 8;
    return p;
  }

  RecordedEpoch record(std::uint8_t prefix, Seconds gpu_batch_time) {
    return prefetch::record_epoch(flows(prefix), params(gpu_batch_time));
  }
};

double time_of(const sim::Recorder& record, std::int32_t node) {
  return record.node(node).time;
}

TEST(Trace, OneRowPerSampleWithOrderedTimestamps) {
  Fixture f;
  const auto traced = f.record(2, Seconds::millis(25.0));
  const sim::Recorder& record = traced.record;
  ASSERT_EQ(record.visits().size(), f.catalog.size());
  for (const sim::Visit& visit : record.visits()) {
    EXPECT_LE(time_of(record, visit.issue), time_of(record, visit.storage_done));
    EXPECT_LE(time_of(record, visit.storage_done), time_of(record, visit.transmission));
    EXPECT_LE(time_of(record, visit.transmission), time_of(record, visit.arrival));
    EXPECT_LE(time_of(record, visit.arrival), time_of(record, visit.ready));
    EXPECT_LE(time_of(record, visit.ready), traced.epoch.epoch_time.value());
    EXPECT_GT(visit.wire.count(), 0);
  }
}

void expect_same_epoch(const sim::EpochStats& a, const sim::EpochStats& b) {
  EXPECT_EQ(a.epoch_time.value(), b.epoch_time.value());
  EXPECT_EQ(a.traffic, b.traffic);
  EXPECT_EQ(a.gpu_busy.value(), b.gpu_busy.value());
  EXPECT_EQ(a.gpu_utilization, b.gpu_utilization);
  EXPECT_EQ(a.storage_cpu_busy.value(), b.storage_cpu_busy.value());
  EXPECT_EQ(a.compute_cpu_busy.value(), b.compute_cpu_busy.value());
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.offloaded_samples, b.offloaded_samples);
}

// Every LaneStats field; max_inflight only when `inflight` is set.
void expect_same_lanes(const sim::LaneStats& a, const sim::LaneStats& b, bool inflight) {
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.late_hits, b.late_hits);
  EXPECT_EQ(a.demand_fetches, b.demand_fetches);
  EXPECT_EQ(a.served_locally, b.served_locally);
  EXPECT_EQ(a.skipped_deprioritized, b.skipped_deprioritized);
  EXPECT_EQ(a.worker_stall.value(), b.worker_stall.value());
  if (inflight) {
    EXPECT_EQ(a.max_inflight, b.max_inflight);
  }
}

TEST(Trace, TracedRunIsIdenticalToUntraced) {
  // A recorded run is the plain run plus its record: every stat agrees but
  // the link's in-flight peak, which only a plain worker-lane run counts.
  // The positional entry points are run_epoch, field for field.
  Fixture f;
  const Seconds gpu = Seconds::millis(25.0);
  for (const std::uint8_t prefix : {0, 2}) {
    const auto flow = f.flows(prefix);
    for (const Discipline discipline : {Discipline::kBatchWindow, Discipline::kWorkerReplay}) {
      SCOPED_TRACE(testing::Message() << "prefix " << int{prefix} << ", discipline "
                                      << static_cast<int>(discipline));
      const EpochParams params = f.params(gpu, discipline);
      const auto plain = prefetch::run_epoch(flow, params);
      const auto traced = prefetch::record_epoch(flow, params);
      expect_same_epoch(traced.epoch, plain.epoch);
      expect_same_lanes(traced.prefetch, plain.prefetch, false);
      EXPECT_EQ(traced.prefetch.max_inflight, 0u);
      EXPECT_EQ(traced.epoch.offloaded_samples, prefix == 0 ? 0u : f.catalog.size());
      if (discipline == Discipline::kBatchWindow) {
        expect_same_epoch(
            sim::simulate_epoch_flows(f.catalog.size(), flow, f.cluster, gpu, 42, 0), plain.epoch);
        expect_same_lanes(plain.prefetch, sim::LaneStats{}, true);
      } else {
        const auto replayed =
            prefetch::replay_epoch(f.catalog.size(), flow, f.cluster, gpu, 42, 0, params.replay);
        expect_same_epoch(replayed.epoch, plain.epoch);
        expect_same_lanes(replayed.prefetch, plain.prefetch, true);
        EXPECT_GT(plain.prefetch.max_inflight, 0u);
        EXPECT_GT(plain.prefetch.issued, 0u);
      }
    }
  }
}

TEST(Trace, WireBytesSumToTraffic) {
  Fixture f;
  const auto traced = f.record(0, Seconds::millis(25.0));
  Bytes sum;
  for (const sim::Visit& visit : traced.record.visits()) sum += visit.wire;
  EXPECT_EQ(sum, traced.epoch.traffic);
}

TEST(Trace, LinkUtilizationNearOneWhenNetworkBound) {
  Fixture f;
  f.cluster.bandwidth = Bandwidth::mbps(50.0);  // deeply network-bound
  const auto traced = f.record(0, Seconds::millis(25.0));
  const auto util = link_utilization(traced.record, Seconds(1.0));
  ASSERT_GT(util.size(), 4u);
  // Interior buckets (skip ramp-up and tail) should be ~saturated.
  double mid_sum = 0.0;
  std::size_t mid_n = 0;
  for (std::size_t b = 1; b + 1 < util.size(); ++b) {
    mid_sum += util[b];
    ++mid_n;
    EXPECT_LE(util[b], 1.0 + 1e-9);
  }
  EXPECT_GT(mid_sum / static_cast<double>(mid_n), 0.9);
}

TEST(Trace, LinkUtilizationDropsWhenGpuBound) {
  Fixture f;
  f.cluster.bandwidth = Bandwidth::gbps(50.0);
  const auto traced = f.record(0, Seconds(0.5));
  const auto util = link_utilization(traced.record, Seconds(0.5));
  double total = 0.0;
  for (const auto u : util) total += u;
  EXPECT_LT(total / static_cast<double>(util.size()), 0.2);
}

TEST(Trace, LinkUtilizationIsExactOnAFaultyLink) {
  // Bandwidth dips stretch transfers and the 1 ms latency (plus spikes)
  // lands after the last byte: neither may leak into the busy buckets.
  Fixture f;
  net::FaultProfile profile;
  profile.bandwidth_dip_prob = 0.3;
  profile.latency_spike_prob = 0.2;
  profile.seed = 11;
  const net::FaultInjector faults{profile};
  f.cluster.link_faults = &faults;
  ASSERT_GT(f.cluster.link_latency.value(), 0.0);

  sim::ResourceMap resources(f.cluster);
  const auto flow = f.flows(0);
  const sim::JobLoad job =
      sim::single_job(f.cluster, f.catalog.size(), flow, Seconds::millis(25.0), 42, 0);
  sim::Recorder record;
  (void)sim::run_batch_window(record, resources, {&job, 1}, f.cluster.prefetch_batches);
  ASSERT_GT(resources.link.faulted_transfers(), 0u);

  const Seconds bucket(0.5);
  double busy = 0.0;
  for (const double u : link_utilization(record, bucket)) busy += u * bucket.value();
  EXPECT_NEAR(busy, resources.link.busy_time().value(), 1e-12);
}

TEST(Trace, MeanLatencyAndJsonExport) {
  Fixture f;
  const auto traced = f.record(2, Seconds::millis(25.0));
  EXPECT_GT(mean_latency(traced.record).value(), 0.0);
  const auto json = timeline_json(traced.record);
  ASSERT_EQ(json.size(), f.catalog.size());
  EXPECT_TRUE(json.at(static_cast<std::size_t>(0)).has("issued_s"));
  EXPECT_FALSE(json.at(static_cast<std::size_t>(0)).has("worker"));  // batch window
  // Round-trips through the parser.
  EXPECT_TRUE(Json::parse(json.dump()).has_value());
}

TEST(Trace, EmptyRecorderContracts) {
  const sim::Recorder record;
  EXPECT_TRUE(link_utilization(record, Seconds(1.0)).empty());
  EXPECT_THROW((void)mean_latency(record), ContractViolation);
  EXPECT_EQ(timeline_json(record).size(), 0u);
  EXPECT_THROW((void)link_utilization(record, Seconds(0.0)), ContractViolation);
}

TEST(Trace, ReplayTraceLabelsExactlyTheTracksItUses) {
  // Every span is virtual time on a labeled track, and every label's track
  // carries a span or a flow end: demand-only lanes issue no prefetch, so
  // their trace has no "prefetch" track at all.
  Fixture f;
  for (const std::size_t depth : {std::size_t{0}, std::size_t{8}}) {
    auto params = f.params(Seconds::millis(25.0), Discipline::kWorkerReplay);
    params.replay.prefetch.depth = depth;
    const auto traced = prefetch::record_epoch(f.flows(2), params);
    const Trace trace = build_replay_trace(traced.record, {});
    const std::map<std::uint32_t, std::string> label_of(trace.labels.begin(),
                                                        trace.labels.end());
    ASSERT_EQ(label_of.size(), trace.labels.size()) << "track ids are unique";
    std::set<std::uint32_t> used;
    for (const SpanEvent& span : trace.spans) {
      EXPECT_TRUE(span.virtual_time);
      EXPECT_TRUE(label_of.contains(span.track));
      used.insert(span.track);
    }
    for (const TraceFlow& flow : trace.flows) {
      EXPECT_TRUE(label_of.contains(flow.from_track));
      EXPECT_TRUE(label_of.contains(flow.to_track));
      used.insert(flow.from_track);
      used.insert(flow.to_track);
    }
    EXPECT_EQ(used.size(), label_of.size());
    std::set<std::string> labels;
    for (const auto& [id, label] : label_of) labels.insert(label);
    EXPECT_TRUE(labels.contains("link"));
    EXPECT_TRUE(labels.contains("storage-0"));
    EXPECT_EQ(labels.contains("prefetch"), depth > 0) << "depth " << depth;
  }
}

}  // namespace
}  // namespace sophon::obs
