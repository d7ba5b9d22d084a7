#include "prefetch/replay.h"

#include <gtest/gtest.h>

#include <set>

#include "obs/critpath/critpath.h"

namespace sophon::prefetch {
namespace {

// A link-bound shape: at 500 Mbps a 315 KB payload transfers in ~5 ms while
// a worker's synchronous round trip (1 ms request + transfer + 1 ms
// response + 16 ms local compute, over 4 workers) paces demand at ~5.8 ms
// per sample — the link sits idle whenever every worker is preprocessing,
// which is precisely the gap clairvoyant prefetching closes.
sim::SampleFlow uniform_flow(std::size_t /*i*/) {
  sim::SampleFlow f;
  f.wire = Bytes(315000);
  f.compute_cpu = Seconds::millis(16.0);
  return f;
}

sim::ClusterConfig test_cluster() {
  sim::ClusterConfig cluster;
  cluster.bandwidth = Bandwidth::mbps(500.0);
  cluster.link_latency = Seconds::millis(1.0);
  cluster.batch_size = 64;
  return cluster;
}

ReplayOptions with_depth(std::size_t depth) {
  ReplayOptions options;
  options.prefetch.depth = depth;
  options.workers = 4;
  return options;
}

constexpr std::size_t kSamples = 512;
constexpr std::uint64_t kSeed = 42;

TEST(PrefetchReplay, DepthFourBeatsDemandWhenLinkBound) {
  const auto demand =
      replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0), kSeed, 0,
                   with_depth(0));
  const auto prefetch =
      replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0), kSeed, 0,
                   with_depth(4));
  EXPECT_LT(prefetch.epoch.epoch_time.value(), demand.epoch.epoch_time.value());
  // Latency hiding must not move extra bytes.
  EXPECT_EQ(prefetch.epoch.traffic, demand.epoch.traffic);
  EXPECT_EQ(demand.prefetch.issued, 0u);
  EXPECT_EQ(demand.prefetch.demand_fetches, kSamples);
  EXPECT_EQ(prefetch.prefetch.issued, kSamples);
  EXPECT_EQ(prefetch.prefetch.hits, kSamples);
}

TEST(PrefetchReplay, DepthAtLeastWorkersBeatsDemandAndDeeperNeverHurts) {
  // Depth below the worker count can lose to demand (fewer concurrent
  // transfers than the workers would keep up themselves); the guarantee
  // starts at depth >= workers and deepening further must not regress.
  const auto demand =
      replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0), kSeed, 0,
                   with_depth(0));
  double previous = demand.epoch.epoch_time.value();
  for (const std::size_t depth : {4u, 16u, 64u}) {
    const auto result =
        replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0), kSeed, 0,
                     with_depth(depth));
    EXPECT_LT(result.epoch.epoch_time.value(), demand.epoch.epoch_time.value())
        << "depth " << depth;
    EXPECT_LE(result.epoch.epoch_time.value(), previous + 1e-9) << "depth " << depth;
    EXPECT_EQ(result.epoch.traffic, demand.epoch.traffic) << "depth " << depth;
    previous = result.epoch.epoch_time.value();
  }
}

TEST(PrefetchReplay, PrefetchPipelinesTransfersOnTheLink) {
  const auto demand =
      replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0), kSeed, 0,
                   with_depth(0));
  const auto prefetch =
      replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0), kSeed, 0,
                   with_depth(8));
  // The scheduler keeps several requests outstanding; a demand worker keeps
  // at most one per worker.
  EXPECT_GT(prefetch.prefetch.max_inflight, demand.prefetch.max_inflight);
  EXPECT_LE(prefetch.prefetch.max_inflight, 8u + 4u);
  EXPECT_LT(prefetch.prefetch.worker_stall.value(), demand.prefetch.worker_stall.value());
}

TEST(PrefetchReplay, BytesBudgetStillBeatsDemand) {
  ReplayOptions options = with_depth(16);
  options.prefetch.bytes_budget = Bytes(2 * 315000);  // ~2 payloads staged
  const auto demand =
      replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0), kSeed, 0,
                   with_depth(0));
  const auto budgeted =
      replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0), kSeed, 0,
                   options);
  EXPECT_LT(budgeted.epoch.epoch_time.value(), demand.epoch.epoch_time.value());
  EXPECT_EQ(budgeted.epoch.traffic, demand.epoch.traffic);
}

TEST(PrefetchReplay, TinyPayloadsGoThroughTheDemandPath) {
  const auto tiny_flow = [](std::size_t) {
    sim::SampleFlow f;
    f.wire = Bytes(2000);  // below the 4 KiB deprioritization default
    f.compute_cpu = Seconds::millis(2.0);
    return f;
  };
  const auto result = replay_epoch(kSamples, tiny_flow, test_cluster(), Seconds::millis(5.0),
                                   kSeed, 0, with_depth(8));
  EXPECT_EQ(result.prefetch.issued, 0u);
  EXPECT_EQ(result.prefetch.skipped_deprioritized, kSamples);
  EXPECT_EQ(result.prefetch.demand_fetches, kSamples);
}

TEST(PrefetchReplay, LocallyServedSamplesMoveNoBytes) {
  ReplayOptions options = with_depth(8);
  options.served_locally = [](std::uint64_t id) { return id % 2 == 0; };
  const auto result = replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0),
                                   kSeed, 0, options);
  EXPECT_EQ(result.prefetch.served_locally, kSamples / 2);
  EXPECT_EQ(result.prefetch.issued, kSamples / 2);
  EXPECT_EQ(result.epoch.traffic, Bytes(315000) * static_cast<std::int64_t>(kSamples / 2));
}

TEST(PrefetchReplay, TraceMarksPrefetchedSamples) {
  obs::critpath::EpochParams params;
  params.cluster = test_cluster();
  params.gpu_batch_time = Seconds::millis(5.0);
  params.seed = kSeed;
  params.num_samples = kSamples;
  params.discipline = obs::critpath::Discipline::kWorkerReplay;
  params.replay = with_depth(8);
  const auto result = obs::critpath::record_epoch(uniform_flow, params);
  const sim::Recorder& record = result.record;
  ASSERT_EQ(record.visits().size(), kSamples);
  std::set<std::int64_t> positions;
  for (const sim::Visit& visit : record.visits()) {
    const std::int64_t position = record.node(visit.ready).position;
    positions.insert(position);
    EXPECT_TRUE(visit.prefetched) << "position " << position;
    EXPECT_LE(record.node(visit.issue).time, record.node(visit.arrival).time);
    EXPECT_LE(record.node(visit.arrival).time, record.node(visit.ready).time);
  }
  EXPECT_EQ(positions.size(), kSamples);
  EXPECT_EQ(result.prefetch.hits, kSamples);
}

TEST(PrefetchReplay, DeterministicAcrossRuns) {
  const auto a = replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0),
                              kSeed, 3, with_depth(4));
  const auto b = replay_epoch(kSamples, uniform_flow, test_cluster(), Seconds::millis(5.0),
                              kSeed, 3, with_depth(4));
  EXPECT_EQ(a.epoch.epoch_time.value(), b.epoch.epoch_time.value());
  EXPECT_EQ(a.epoch.traffic, b.epoch.traffic);
  EXPECT_EQ(a.prefetch.hits, b.prefetch.hits);
  EXPECT_EQ(a.prefetch.late_hits, b.prefetch.late_hits);
}

}  // namespace
}  // namespace sophon::prefetch
