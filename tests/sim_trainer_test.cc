#include "sim/trainer.h"

#include <gtest/gtest.h>

#include "net/wire.h"
#include "obs/critpath/critpath.h"
#include "prefetch/replay.h"
#include "util/check.h"

namespace sophon::sim {
namespace {

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(2000), 42);
  pipeline::Pipeline pipeline = pipeline::Pipeline::standard();
  pipeline::CostModel cost_model;
  ClusterConfig cluster = [] {
    ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(200.0);
    c.batch_size = 64;
    return c;
  }();
  Seconds batch_time = Seconds::millis(25.0);

  EpochStats run(std::span<const std::uint8_t> assignment, std::size_t epoch = 0) {
    return simulate_epoch(catalog, pipeline, cost_model, cluster, batch_time, assignment, 42,
                          epoch);
  }
};

TEST(Trainer, NoOffloadTrafficEqualsRawWireBytes) {
  Fixture f;
  const auto stats = f.run({});
  Bytes expected;
  for (const auto& s : f.catalog.samples()) expected += net::wire_size(s.raw);
  EXPECT_EQ(stats.traffic, expected);
  EXPECT_EQ(stats.samples, 2000u);
  EXPECT_EQ(stats.batches, (2000u + 63) / 64);
  EXPECT_EQ(stats.offloaded_samples, 0u);
  EXPECT_DOUBLE_EQ(stats.storage_cpu_busy.value(), 0.0);
}

TEST(Trainer, EpochTimeBoundedBelowByResourceTotals) {
  Fixture f;
  const auto stats = f.run({});
  // The epoch can never beat the network or the GPU alone.
  const double net_time = stats.traffic.as_double() / f.cluster.bandwidth.bytes_per_sec();
  EXPECT_GE(stats.epoch_time.value(), net_time - 1e-9);
  EXPECT_GE(stats.epoch_time.value(), stats.gpu_busy.value() - 1e-9);
  EXPECT_GE(stats.epoch_time.value(),
            stats.compute_cpu_busy.value() / f.cluster.compute_cores - 1e-9);
}

TEST(Trainer, GpuUtilizationConsistent) {
  Fixture f;
  const auto stats = f.run({});
  EXPECT_NEAR(stats.gpu_utilization, stats.gpu_busy.value() / stats.epoch_time.value(), 1e-12);
  EXPECT_GT(stats.gpu_utilization, 0.0);
  EXPECT_LE(stats.gpu_utilization, 1.0);
}

TEST(Trainer, FullOffloadMovesCpuToStorage) {
  Fixture f;
  const std::vector<std::uint8_t> all(f.catalog.size(), 5);
  const auto stats = f.run(all);
  EXPECT_EQ(stats.offloaded_samples, f.catalog.size());
  EXPECT_GT(stats.storage_cpu_busy.value(), 0.0);
  EXPECT_DOUBLE_EQ(stats.compute_cpu_busy.value(), 0.0);
  // Tensor payloads: traffic must be ~602 KB per sample.
  EXPECT_NEAR(stats.traffic.as_double() / static_cast<double>(f.catalog.size()),
              224.0 * 224 * 3 * 4 + 16, 1.0);
}

TEST(Trainer, ResizePrefixReducesTrafficOnOpenImages) {
  Fixture f;
  const std::vector<std::uint8_t> resize(f.catalog.size(), 2);
  const auto base = f.run({});
  const auto off = f.run(resize);
  EXPECT_LT(off.traffic, base.traffic);
  EXPECT_GT(off.storage_cpu_busy.value(), 0.0);
}

TEST(Trainer, SelectiveAssignmentOnlyChargesOffloadedSamples) {
  Fixture f;
  std::vector<std::uint8_t> some(f.catalog.size(), 0);
  for (std::size_t i = 0; i < some.size(); i += 4) some[i] = 2;
  const auto stats = f.run(some);
  EXPECT_EQ(stats.offloaded_samples, (f.catalog.size() + 3) / 4);
}

TEST(Trainer, ConservationAcrossEpochShuffles) {
  // Traffic is order-independent: every epoch moves the same bytes.
  Fixture f;
  const auto e0 = f.run({}, 0);
  const auto e1 = f.run({}, 1);
  EXPECT_EQ(e0.traffic, e1.traffic);
  EXPECT_NEAR(e0.epoch_time.value(), e1.epoch_time.value(), 0.05 * e0.epoch_time.value());
}

TEST(Trainer, SlowerLinkIncreasesEpochTime) {
  Fixture f;
  const auto fast = f.run({});
  f.cluster.bandwidth = Bandwidth::mbps(50.0);
  const auto slow = f.run({});
  EXPECT_GT(slow.epoch_time.value(), fast.epoch_time.value());
}

TEST(Trainer, MoreStorageCoresNeverHurtFullOffload) {
  Fixture f;
  const std::vector<std::uint8_t> all(f.catalog.size(), 5);
  f.cluster.storage_cores = 1;
  const auto one = f.run(all);
  f.cluster.storage_cores = 8;
  const auto eight = f.run(all);
  EXPECT_LE(eight.epoch_time.value(), one.epoch_time.value() + 1e-9);
}

TEST(Trainer, OffloadWithZeroStorageCoresIsRejected) {
  Fixture f;
  f.cluster.storage_cores = 0;
  const std::vector<std::uint8_t> all(f.catalog.size(), 2);
  EXPECT_THROW((void)f.run(all), ContractViolation);
  // But a no-offload run is fine.
  EXPECT_NO_THROW((void)f.run({}));

  // Worker-lane replay (demand and prefetch) and the critical-path analyzer
  // (both disciplines) apply the same rule to the same offloaded flows.
  const auto flow = plan_flow(f.catalog, f.pipeline, f.cost_model, all);
  for (const std::size_t depth : {0, 4}) {
    prefetch::ReplayOptions options;
    options.prefetch.depth = depth;
    EXPECT_THROW((void)prefetch::replay_epoch(f.catalog.size(), flow, f.cluster, f.batch_time, 42,
                                              0, options),
                 ContractViolation);
  }
  obs::critpath::EpochParams params;
  params.cluster = f.cluster;
  params.gpu_batch_time = f.batch_time;
  params.num_samples = f.catalog.size();
  for (const auto discipline :
       {obs::critpath::Discipline::kBatchWindow, obs::critpath::Discipline::kWorkerReplay}) {
    params.discipline = discipline;
    EXPECT_THROW((void)obs::critpath::analyze_epoch(flow, params), ContractViolation);
  }
}

TEST(Trainer, RejectsMalformedAssignment) {
  Fixture f;
  const std::vector<std::uint8_t> wrong_size(5, 0);
  EXPECT_THROW((void)f.run(wrong_size), ContractViolation);
  std::vector<std::uint8_t> bad_prefix(f.catalog.size(), 0);
  bad_prefix[0] = 6;
  EXPECT_THROW((void)f.run(bad_prefix), ContractViolation);
}

TEST(Trainer, GpuBoundWorkloadIsGpuLimited) {
  Fixture f;
  f.cluster.bandwidth = Bandwidth::gbps(100.0);  // network essentially free
  f.batch_time = Seconds::millis(400.0);
  const auto stats = f.run({});
  const double gpu_total = 0.4 * static_cast<double>(stats.batches);
  EXPECT_NEAR(stats.epoch_time.value(), gpu_total, 0.1 * gpu_total);
  EXPECT_GT(stats.gpu_utilization, 0.9);
}

TEST(Trainer, FlowsApiMatchesAssignmentApi) {
  Fixture f;
  std::vector<std::uint8_t> some(f.catalog.size(), 0);
  for (std::size_t i = 0; i < some.size(); i += 3) some[i] = 2;
  const auto direct = f.run(some);

  const auto via_flows =
      simulate_epoch_flows(f.catalog.size(), plan_flow(f.catalog, f.pipeline, f.cost_model, some),
                           f.cluster, f.batch_time, 42, 0);
  EXPECT_EQ(via_flows.traffic, direct.traffic);
  EXPECT_DOUBLE_EQ(via_flows.epoch_time.value(), direct.epoch_time.value());
}

TEST(Trainer, PlanFlowChargesPrefixWireAndSuffix) {
  Fixture f;
  std::vector<std::uint8_t> assignment(f.catalog.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<std::uint8_t>(i % (f.pipeline.size() + 1));
  }
  const auto flow = plan_flow(f.catalog, f.pipeline, f.cost_model, assignment);
  const auto raw = plan_flow(f.catalog, f.pipeline, f.cost_model, {});
  for (std::size_t i = 0; i < 50; ++i) {
    const auto& meta = f.catalog.sample(i);
    const std::size_t prefix = assignment[i];
    const SampleFlow fl = flow(i);
    EXPECT_EQ(fl.storage_cpu.value(),
              prefix > 0 ? f.pipeline.prefix_cost(meta.raw, prefix, f.cost_model).value() : 0.0);
    EXPECT_EQ(fl.wire, net::wire_size(f.pipeline.shape_at(meta.raw, prefix)));
    EXPECT_EQ(fl.compute_cpu.value(),
              f.pipeline.suffix_cost(meta.raw, prefix, f.cost_model).value());
    EXPECT_EQ(fl.delay.value(), 0.0);
    EXPECT_EQ(fl.stage, prefix);
    // No assignment ships every sample raw.
    EXPECT_EQ(raw(i).wire, net::wire_size(f.pipeline.shape_at(meta.raw, 0)));
    EXPECT_EQ(raw(i).storage_cpu.value(), 0.0);
  }
  const std::vector<std::uint8_t> wrong_size(5, 0);
  EXPECT_THROW((void)plan_flow(f.catalog, f.pipeline, f.cost_model, wrong_size), ContractViolation);
}

}  // namespace
}  // namespace sophon::sim
