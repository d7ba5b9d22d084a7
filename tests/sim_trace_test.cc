#include "sim/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/trainer.h"
#include "util/check.h"

namespace sophon::sim {
namespace {

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(800), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  ClusterConfig cluster = [] {
    ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(200.0);
    c.batch_size = 64;
    return c;
  }();

  // Uniform assignments by prefix length, kept alive for the flows.
  std::map<std::uint8_t, std::vector<std::uint8_t>> uniform;

  std::function<SampleFlow(std::size_t)> flows(std::uint8_t prefix) {
    const auto& assignment = uniform.try_emplace(prefix, catalog.size(), prefix).first->second;
    return plan_flow(catalog, pipe, cm, assignment);
  }
};

TEST(Trace, OneRowPerSampleWithOrderedTimestamps) {
  Fixture f;
  TraceRecorder recorder;
  const auto stats = simulate_epoch_flows(f.catalog.size(), f.flows(2), f.cluster,
                                          Seconds::millis(25.0), 42, 0, recorder.sink());
  ASSERT_EQ(recorder.size(), f.catalog.size());
  for (const auto& row : recorder.rows()) {
    EXPECT_LE(row.issued.value(), row.storage_done.value());
    EXPECT_LE(row.storage_done.value(), row.link_done.value());
    EXPECT_LE(row.link_done.value(), row.ready.value());
    EXPECT_LE(row.ready.value(), stats.epoch_time.value());
    EXPECT_GT(row.wire.count(), 0);
  }
}

TEST(Trace, TracedRunIsIdenticalToUntraced) {
  Fixture f;
  TraceRecorder recorder;
  const auto traced = simulate_epoch_flows(f.catalog.size(), f.flows(0), f.cluster,
                                           Seconds::millis(25.0), 42, 0, recorder.sink());
  const auto plain = simulate_epoch_flows(f.catalog.size(), f.flows(0), f.cluster,
                                          Seconds::millis(25.0), 42, 0);
  EXPECT_DOUBLE_EQ(traced.epoch_time.value(), plain.epoch_time.value());
  EXPECT_EQ(traced.traffic, plain.traffic);
}

TEST(Trace, WireBytesSumToTraffic) {
  Fixture f;
  TraceRecorder recorder;
  const auto stats = simulate_epoch_flows(f.catalog.size(), f.flows(0), f.cluster,
                                          Seconds::millis(25.0), 42, 0, recorder.sink());
  Bytes sum;
  for (const auto& row : recorder.rows()) sum += row.wire;
  EXPECT_EQ(sum, stats.traffic);
}

TEST(Trace, LinkUtilizationNearOneWhenNetworkBound) {
  Fixture f;
  f.cluster.bandwidth = Bandwidth::mbps(50.0);  // deeply network-bound
  TraceRecorder recorder;
  (void)simulate_epoch_flows(f.catalog.size(), f.flows(0), f.cluster, Seconds::millis(25.0),
                             42, 0, recorder.sink());
  const auto util = recorder.link_utilization(Seconds(1.0), f.cluster.bandwidth);
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
  TraceRecorder recorder;
  (void)simulate_epoch_flows(f.catalog.size(), f.flows(0), f.cluster, Seconds(0.5), 42, 0,
                             recorder.sink());
  const auto util = recorder.link_utilization(Seconds(0.5), f.cluster.bandwidth);
  double total = 0.0;
  for (const auto u : util) total += u;
  EXPECT_LT(total / static_cast<double>(util.size()), 0.2);
}

TEST(Trace, MeanLatencyAndJsonExport) {
  Fixture f;
  TraceRecorder recorder;
  (void)simulate_epoch_flows(f.catalog.size(), f.flows(2), f.cluster, Seconds::millis(25.0),
                             42, 0, recorder.sink());
  EXPECT_GT(recorder.mean_latency().value(), 0.0);
  const auto json = recorder.to_json();
  ASSERT_EQ(json.size(), f.catalog.size());
  EXPECT_TRUE(json.at(static_cast<std::size_t>(0)).has("issued_s"));
  // Round-trips through the parser.
  EXPECT_TRUE(Json::parse(json.dump()).has_value());
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(Trace, EmptyRecorderContracts) {
  TraceRecorder recorder;
  EXPECT_TRUE(recorder.link_utilization(Seconds(1.0), Bandwidth::mbps(100.0)).empty());
  EXPECT_THROW((void)recorder.mean_latency(), ContractViolation);
}

}  // namespace
}  // namespace sophon::sim
