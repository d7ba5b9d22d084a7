#include "obs/replay_trace.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/fault.h"
#include "obs/critpath/critpath.h"
#include "prefetch/replay.h"
#include "sim/trainer.h"
#include "util/check.h"

namespace sophon::obs {
namespace {

using critpath::Discipline;
using critpath::EpochParams;
using critpath::RecordedEpoch;

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
    return critpath::record_epoch(flows(prefix), params(gpu_batch_time));
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

TEST(Trace, TracedRunIsIdenticalToUntraced) {
  Fixture f;
  const auto flow = f.flows(0);
  const auto traced = critpath::record_epoch(flow, f.params(Seconds::millis(25.0)));
  const auto plain = sim::simulate_epoch_flows(f.catalog.size(), flow, f.cluster,
                                               Seconds::millis(25.0), 42, 0);
  EXPECT_DOUBLE_EQ(traced.epoch.epoch_time.value(), plain.epoch_time.value());
  EXPECT_EQ(traced.epoch.traffic, plain.traffic);

  const auto params = f.params(Seconds::millis(25.0), Discipline::kWorkerReplay);
  const auto traced_lanes = critpath::record_epoch(flow, params);
  const auto plain_lanes = prefetch::replay_epoch(f.catalog.size(), flow, f.cluster,
                                                  Seconds::millis(25.0), 42, 0, params.replay);
  EXPECT_DOUBLE_EQ(traced_lanes.epoch.epoch_time.value(), plain_lanes.epoch.epoch_time.value());
  EXPECT_EQ(traced_lanes.epoch.traffic, plain_lanes.epoch.traffic);
  EXPECT_EQ(traced_lanes.prefetch.hits, plain_lanes.prefetch.hits);
  EXPECT_EQ(traced_lanes.prefetch.worker_stall, plain_lanes.prefetch.worker_stall);
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
    const auto traced = critpath::record_epoch(f.flows(2), params);
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
