#include "obs/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "net/fault.h"
#include "net/resilience.h"
#include "obs/replay_trace.h"
#include "prefetch/replay.h"
#include "sim/cluster.h"
#include "sim/trainer.h"

namespace sophon::obs {
namespace {

using Labels = std::vector<std::pair<std::uint32_t, std::string>>;

/// The worker-lane epoch both replay tests trace: seed 42, epoch 1, and a
/// 50 ms GPU step.
prefetch::EpochParams replay_params(const sim::ClusterConfig& cluster, std::size_t samples,
                                    const prefetch::ReplayOptions& options) {
  prefetch::EpochParams params;
  params.cluster = cluster;
  params.gpu_batch_time = Seconds(0.05);
  params.seed = 42;
  params.epoch_index = 1;
  params.num_samples = samples;
  params.discipline = prefetch::Discipline::kWorkerReplay;
  params.replay = options;
  return params;
}

SpanEvent make_span(std::uint32_t track, SpanCategory category, const char* name, double begin_s,
                    double end_s) {
  SpanEvent span;
  std::snprintf(span.name, sizeof(span.name), "%s", name);
  span.category = category;
  span.track = track;
  span.begin_ns = static_cast<std::uint64_t>(begin_s * 1e9);
  span.end_ns = static_cast<std::uint64_t>(end_s * 1e9);
  return span;
}

TEST(EpochReport, NestedSpansFoldIntoSelfTime) {
  // A demand fetch that encloses the storage-side prefix execution (loopback
  // RPC on the worker thread) charges only the wire-and-wait portion to
  // fetch; the prefix time is storage busy, not worker stall.
  const Labels labels{{0, "worker-0"}};
  const std::vector<SpanEvent> spans{
      make_span(0, SpanCategory::kFetch, "fetch", 0.0, 10.0),
      make_span(0, SpanCategory::kStoragePrep, "storage_prefix", 2.0, 6.0),
  };
  const auto report = EpochReport::build({spans, labels}, Seconds(12.0));
  ASSERT_EQ(report.workers().size(), 1u);
  const auto& worker = report.workers()[0];
  EXPECT_NEAR(worker.fetch_stall.value(), 6.0, 1e-9);
  EXPECT_NEAR(report.storage_busy().value(), 4.0, 1e-9);
  EXPECT_NEAR(worker.idle.value(), 6.0, 1e-9);
  EXPECT_EQ(worker.spans, 2u);
}

TEST(EpochReport, SiblingSpansAccumulateWithoutNesting) {
  const Labels labels{{0, "worker-0"}};
  const std::vector<SpanEvent> spans{
      make_span(0, SpanCategory::kPreprocess, "decode", 0.0, 2.0),
      make_span(0, SpanCategory::kPreprocess, "resize", 2.0, 5.0),
      make_span(0, SpanCategory::kCollate, "collate", 5.0, 6.0),
  };
  const auto report = EpochReport::build({spans, labels}, Seconds(6.0));
  ASSERT_EQ(report.workers().size(), 1u);
  const auto& worker = report.workers()[0];
  EXPECT_NEAR(worker.preprocess.value(), 5.0, 1e-9);
  EXPECT_NEAR(worker.collate.value(), 1.0, 1e-9);
  EXPECT_NEAR(worker.idle.value(), 0.0, 1e-9);
  EXPECT_NEAR(worker.total().value(), 6.0, 1e-9);
}

TEST(EpochReport, NonWorkerTracksFeedObservedCosts) {
  const Labels labels{{0, "worker-0"}, {1, "link"}, {2, "gpu"}};
  const std::vector<SpanEvent> spans{
      make_span(0, SpanCategory::kPreprocess, "preprocess", 0.0, 2.0),
      make_span(1, SpanCategory::kTransfer, "transfer", 0.0, 1.0),
      make_span(1, SpanCategory::kTransfer, "transfer", 1.0, 3.0),
      make_span(2, SpanCategory::kGpu, "gpu_batch", 0.0, 0.5),
  };
  const auto report = EpochReport::build({spans, labels}, Seconds(3.0));
  EXPECT_NEAR(report.transfer_busy().value(), 3.0, 1e-9);
  EXPECT_NEAR(report.gpu_busy().value(), 0.5, 1e-9);
  const auto observed = report.observed();
  EXPECT_NEAR(observed.t_net.value(), 3.0, 1e-9);
  EXPECT_NEAR(observed.t_cc.value(), 2.0, 1e-9);
  EXPECT_NEAR(observed.t_g.value(), 0.5, 1e-9);
  EXPECT_EQ(report.observed_bottleneck(), "net");
}

TEST(EpochReport, ObservedStorageTimeIsPerStorageTrack) {
  // T_CS is predicted per core, so two storage lanes busy 4 s each observe
  // 4 s, not their 8 core-seconds; a track without storage prep (the link)
  // does not dilute it.
  const Labels labels{{0, "storage-0"}, {1, "storage-1"}, {2, "link"}};
  const std::vector<SpanEvent> spans{
      make_span(0, SpanCategory::kStoragePrep, "storage_prefix", 0.0, 4.0),
      make_span(1, SpanCategory::kStoragePrep, "storage_prefix", 0.0, 1.5),
      make_span(1, SpanCategory::kStoragePrep, "storage_prefix", 2.0, 4.5),
      make_span(2, SpanCategory::kTransfer, "transfer", 0.0, 1.0),
  };
  const auto report = EpochReport::build({spans, labels}, Seconds(5.0));
  EXPECT_NEAR(report.storage_busy().value(), 8.0, 1e-9);
  EXPECT_NEAR(report.observed().t_cs.value(), 4.0, 1e-9);
  // No storage prep anywhere: zero, not a division by zero.
  const auto idle = EpochReport::build(
      {{make_span(2, SpanCategory::kTransfer, "transfer", 0.0, 1.0)}, labels}, Seconds(1.0));
  EXPECT_EQ(idle.observed().t_cs.value(), 0.0);
}

TEST(EpochReport, BottleneckTieOrderPrefersNet) {
  EpochReport::Costs costs{Seconds(1.0), Seconds(1.0), Seconds(1.0), Seconds(1.0)};
  EXPECT_EQ(EpochReport::bottleneck_of(costs), "net");
  costs.t_net = Seconds(0.5);
  EXPECT_EQ(EpochReport::bottleneck_of(costs), "gpu");
  costs.t_g = Seconds(0.5);
  EXPECT_EQ(EpochReport::bottleneck_of(costs), "storage-cpu");
  costs.t_cs = Seconds(0.5);
  EXPECT_EQ(EpochReport::bottleneck_of(costs), "cpu");
}

TEST(EpochReport, RenderReportsAgreementAndDivergence) {
  const Labels labels{{0, "worker-0"}, {1, "link"}};
  const std::vector<SpanEvent> spans{
      make_span(0, SpanCategory::kPreprocess, "preprocess", 0.0, 1.0),
      make_span(1, SpanCategory::kTransfer, "transfer", 0.0, 4.0),
  };
  auto report = EpochReport::build({spans, labels}, Seconds(4.0));
  report.set_predicted(report.observed());
  EXPECT_NE(report.render().find("agreement"), std::string::npos);
  // A prediction that names a different bottleneck must be flagged loudly.
  report.set_predicted(EpochReport::Costs{Seconds(10.0), Seconds(0.1), Seconds(0.1), Seconds(0.1)});
  EXPECT_NE(report.render().find("DIVERGENCE"), std::string::npos);
}

TEST(EpochReport, ToJsonCarriesWorkersAndCosts) {
  const Labels labels{{0, "worker-0"}, {1, "worker-1"}, {2, "link"}};
  const std::vector<SpanEvent> spans{
      make_span(0, SpanCategory::kFetch, "fetch", 0.0, 1.0),
      make_span(1, SpanCategory::kPreprocess, "preprocess", 0.0, 2.0),
      make_span(2, SpanCategory::kTransfer, "transfer", 0.0, 1.0),
  };
  auto report = EpochReport::build({spans, labels}, Seconds(2.0));
  Json doc = report.to_json();
  EXPECT_EQ(doc.at("kind").as_string(), "sophon.epoch_report");
  EXPECT_EQ(doc.at("workers").size(), 2u);
  EXPECT_TRUE(doc.at("observed").has("bottleneck"));
  EXPECT_FALSE(doc.has("predicted"));
  report.set_predicted(report.observed());
  EXPECT_TRUE(report.to_json().has("predicted"));
}

TEST(EpochReport, ReplayReconciliationWithinOnePercent) {
  // The acceptance bar for the whole subsystem: fold the trace of a
  // deterministic replay and the per-worker/per-resource totals must
  // reconcile with the replay's own accounting to within 1%.
  constexpr std::size_t kSamples = 512;
  constexpr std::size_t kWorkers = 4;
  const Seconds compute_cost(0.010);
  const Bytes wire(1 << 20);

  sim::ClusterConfig cluster;
  cluster.compute_cores = 16;  // >= workers: no core queueing, windows exact
  cluster.storage_cores = 4;
  cluster.bandwidth = Bandwidth::mbps(1000.0);
  cluster.batch_size = 64;

  const auto flow = [&](std::size_t) {
    sim::SampleFlow f;
    f.wire = wire;
    f.compute_cpu = compute_cost;
    return f;
  };

  prefetch::ReplayOptions options;
  options.workers = kWorkers;
  options.prefetch.depth = 16;

  const auto result = prefetch::record_epoch(flow, replay_params(cluster, kSamples, options));
  const SampleCostFn costs = [&](std::uint32_t) {
    SampleOpCosts detail;
    detail.compute_ops = {{"decode", compute_cost * 0.5}, {"augment", compute_cost * 0.5}};
    detail.prefix = 0;
    return detail;
  };
  const Trace trace = build_replay_trace(result.record, costs);
  ASSERT_FALSE(trace.spans.empty());

  const auto report = EpochReport::build(trace, result.epoch.epoch_time);
  ASSERT_EQ(report.workers().size(), kWorkers);

  const auto within_1pct = [](Seconds observed, Seconds expected) {
    const double reference = std::max(expected.value(), 1e-9);
    EXPECT_NEAR(observed.value(), expected.value(), 0.01 * reference)
        << "observed " << observed.value() << " vs expected " << expected.value();
  };
  // Worker preprocess self time == the replay's compute-CPU busy total.
  within_1pct(report.total_preprocess(), result.epoch.compute_cpu_busy);
  // Link-track transfer spans == the FIFO link's busy time for the traffic.
  within_1pct(report.transfer_busy(), cluster.bandwidth.transfer_time(result.epoch.traffic));
  // Byte drift is held to zero, not 1%: the transfer spans carry exact byte
  // args, so their sum must equal the replay's own traffic counter (and the
  // known per-sample wire size) to the byte — the same ground truth the
  // traffic ledger reconciles against.
  EXPECT_EQ(report.transfer_bytes().count(), result.epoch.traffic.count());
  EXPECT_EQ(report.transfer_bytes().count(),
            static_cast<std::int64_t>(kSamples) * wire.count());
  // GPU-track spans == the trainer's GPU service total.
  within_1pct(report.gpu_busy(), result.epoch.gpu_busy);
  // Fetch stalls + staging waits == the replay's own worker-stall counter.
  within_1pct(report.total_fetch_stall() + report.total_staging_wait(),
              result.prefetch.worker_stall);
  // Every worker's breakdown closes: accounted + idle spans the wall clock.
  for (const auto& worker : report.workers()) {
    EXPECT_LE(worker.accounted().value(), result.epoch.epoch_time.value() * 1.01);
    within_1pct(worker.total(), result.epoch.epoch_time);
  }
}

TEST(EpochReport, FaultyReplayReconcilesWithRetryBucket) {
  // Under fault injection the resilience ladder charges backoff as injected
  // delay; the trace records those windows as kRetry spans nested inside the
  // demand fetch. They must land in the distinct `retry` bucket — not
  // inflate fetch-stall — and the bucket must reconcile with the fault
  // replay's own backoff accounting.
  constexpr std::size_t kSamples = 256;
  sim::ClusterConfig cluster;
  cluster.compute_cores = 16;
  cluster.storage_cores = 4;
  cluster.bandwidth = Bandwidth::mbps(1000.0);
  cluster.batch_size = 64;

  const auto clean_flow = [](std::size_t) {
    sim::SampleFlow f;
    f.storage_cpu = Seconds(0.002);  // offloaded, so offload-only faults apply
    f.wire = Bytes(1 << 19);
    f.compute_cpu = Seconds(0.004);
    return f;
  };
  const auto raw_flow = [](std::size_t) {
    sim::SampleFlow f;
    f.wire = Bytes(1 << 20);
    f.compute_cpu = Seconds(0.008);
    return f;
  };
  net::FaultProfile profile;
  profile.transient_fail_prob = 0.3;  // plenty of retries, ladders rarely exhaust
  profile.seed = 7;
  const net::FaultInjector faults{profile};
  net::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.seed = profile.seed;
  sim::FaultReplayStats replay_stats;
  const auto flow =
      sim::faulty_flow(clean_flow, raw_flow, faults, retry, /*epoch_index=*/1, &replay_stats);

  prefetch::ReplayOptions options;
  options.workers = 4;
  options.prefetch.depth = 0;  // all demand: the flow runs exactly once per sample

  const auto result = prefetch::record_epoch(flow, replay_params(cluster, kSamples, options));
  const Trace trace = build_replay_trace(result.record, {});
  ASSERT_GT(replay_stats.retries, 0u);
  ASSERT_GT(replay_stats.backoff.value(), 0.0);

  const auto report = EpochReport::build(trace, result.epoch.epoch_time);
  ASSERT_EQ(report.workers().size(), 4u);

  // The retry bucket is the backoff — exactly what faulty_flow charged.
  EXPECT_NEAR(report.total_retry().value(), replay_stats.backoff.value(),
              0.01 * replay_stats.backoff.value());
  // And fetch-stall no longer swallows it: stall components plus retry
  // reconcile with the replay's own worker-stall counter (which spans the
  // whole claim-to-arrival round trip, backoff included).
  const double stall = report.total_fetch_stall().value() + report.total_staging_wait().value() +
                       report.total_retry().value();
  EXPECT_NEAR(stall, result.prefetch.worker_stall.value(),
              0.01 * result.prefetch.worker_stall.value());
  // Every retried sample emitted one retry->success flow arrow, ids in the
  // dedicated retry id space.
  std::size_t retried_rows = 0;
  const sim::Recorder& record = result.record;
  for (const sim::Visit& visit : record.visits()) {
    if (!visit.prefetched && record.node(visit.issue).time > record.node(visit.claim).time) {
      ++retried_rows;
    }
  }
  std::size_t retry_flows = 0;
  for (const auto& flow_event : trace.flows) {
    if (flow_event.name == "retry") {
      EXPECT_GE(flow_event.id, std::uint64_t{1} << 32);
      EXPECT_GE(flow_event.to_ns, flow_event.from_ns);
      ++retry_flows;
    }
  }
  EXPECT_EQ(retry_flows, retried_rows);
  EXPECT_GT(retry_flows, 0u);
  // Per-worker closure still holds under faults.
  for (const auto& worker : report.workers()) {
    EXPECT_LE(worker.accounted().value(), result.epoch.epoch_time.value() * 1.01);
  }
  EXPECT_NE(report.to_json().at("workers").at(0).has("retry_seconds"), false);
}

}  // namespace
}  // namespace sophon::obs
