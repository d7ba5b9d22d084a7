#include "sim/multijob.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/check.h"

namespace sophon::sim {
namespace {

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(1500), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;

  JobSpec job(std::uint8_t prefix, Seconds batch_time = Seconds::millis(40.0),
              std::uint64_t seed = 42) {
    JobSpec spec;
    spec.num_samples = catalog.size();
    spec.gpu_batch_time = batch_time;
    spec.batch_size = 64;
    spec.seed = seed;
    const auto& assignment = uniform.try_emplace(prefix, catalog.size(), prefix).first->second;
    spec.flow = plan_flow(catalog, pipe, cm, assignment);
    return spec;
  }

  // Uniform assignments by prefix length, kept alive for the flows.
  std::map<std::uint8_t, std::vector<std::uint8_t>> uniform;
};

TEST(MultiJob, SingleJobMatchesSingleJobSimulator) {
  Fixture f;
  ClusterConfig shared;
  shared.bandwidth = Bandwidth::mbps(200.0);
  shared.batch_size = 64;
  const auto multi = simulate_multijob_epoch({f.job(0)}, shared);
  const auto single = simulate_epoch_flows(f.catalog.size(), f.job(0).flow, shared,
                                           Seconds::millis(40.0), 42, 0);
  ASSERT_EQ(multi.per_job.size(), 1u);
  EXPECT_DOUBLE_EQ(multi.per_job[0].epoch_time.value(), single.epoch_time.value());
  EXPECT_EQ(multi.per_job[0].traffic, single.traffic);

  // Injected delay (fault-replay backoff) stalls a multi-job sample exactly
  // as it stalls a single-job one.
  JobSpec delayed = f.job(2);
  delayed.flow = [base = f.job(2).flow](std::size_t idx) {
    SampleFlow flow = base(idx);
    if (idx % 5 == 0) flow.delay = Seconds::millis(500.0);
    return flow;
  };
  const auto multi_delayed = simulate_multijob_epoch({delayed}, shared);
  const auto single_delayed = simulate_epoch_flows(f.catalog.size(), delayed.flow, shared,
                                                   Seconds::millis(40.0), 42, 0);
  EXPECT_DOUBLE_EQ(multi_delayed.per_job[0].epoch_time.value(),
                   single_delayed.epoch_time.value());
  EXPECT_GT(single_delayed.epoch_time.value(),
            simulate_epoch_flows(f.catalog.size(), f.job(2).flow, shared, Seconds::millis(40.0),
                                 42, 0)
                .epoch_time.value());
}

TEST(MultiJob, SharingHalvesEffectiveBandwidth) {
  // Two identical network-bound jobs on one link each finish in roughly the
  // time one job would take on half the bandwidth.
  Fixture f;
  ClusterConfig shared;
  shared.bandwidth = Bandwidth::mbps(200.0);
  const auto both = simulate_multijob_epoch({f.job(0), f.job(0, Seconds::millis(40.0), 43)},
                                            shared);
  ClusterConfig half;
  half.bandwidth = Bandwidth::mbps(100.0);
  const auto alone = simulate_epoch_flows(f.catalog.size(), f.job(0).flow, half,
                                          Seconds::millis(40.0), 42, 0);
  for (const auto& job : both.per_job) {
    EXPECT_NEAR(job.epoch_time.value(), alone.epoch_time.value(),
                0.1 * alone.epoch_time.value());
  }
}

TEST(MultiJob, TrafficAccountingSplitsExactly) {
  Fixture f;
  ClusterConfig shared;
  shared.bandwidth = Bandwidth::mbps(300.0);
  const auto stats = simulate_multijob_epoch({f.job(0), f.job(2)}, shared);
  Bytes sum;
  for (const auto& job : stats.per_job) sum += job.traffic;
  EXPECT_EQ(stats.total_traffic, sum);
  // Job 1 offloads at the crop stage → strictly less traffic than job 0.
  EXPECT_LT(stats.per_job[1].traffic, stats.per_job[0].traffic);
  EXPECT_GT(stats.per_job[1].offloaded_samples, 0u);
}

TEST(MultiJob, SharedStorageBusySplitsAcrossJobs) {
  Fixture f;
  ClusterConfig shared;
  shared.bandwidth = Bandwidth::mbps(300.0);
  shared.storage_cores = 4;
  const auto stats = simulate_multijob_epoch({f.job(2), f.job(2, Seconds::millis(40.0), 7)},
                                             shared);
  Seconds sum;
  for (const auto& job : stats.per_job) sum += job.storage_cpu_busy;
  EXPECT_NEAR(sum.value(), stats.shared_storage_busy.value(), 1e-9);
  EXPECT_GT(stats.per_job[0].storage_cpu_busy.value(), 0.0);
  EXPECT_GT(stats.per_job[1].storage_cpu_busy.value(), 0.0);
}

TEST(MultiJob, OffloadingOneJobRelievesTheOther) {
  // Shared-link coupling: when job A offloads (shrinking its bytes), job B
  // speeds up too, without changing anything about itself.
  Fixture f;
  ClusterConfig shared;
  shared.bandwidth = Bandwidth::mbps(200.0);
  shared.storage_cores = 48;
  const auto neither = simulate_multijob_epoch(
      {f.job(0), f.job(0, Seconds::millis(40.0), 7)}, shared);
  const auto a_offloads = simulate_multijob_epoch(
      {f.job(2), f.job(0, Seconds::millis(40.0), 7)}, shared);
  EXPECT_LT(a_offloads.per_job[1].epoch_time.value(),
            neither.per_job[1].epoch_time.value());
}

TEST(MultiJob, MakespanIsTheSlowestJob) {
  Fixture f;
  ClusterConfig shared;
  shared.bandwidth = Bandwidth::mbps(300.0);
  const auto stats = simulate_multijob_epoch(
      {f.job(0), f.job(0, Seconds(1.0), 7)}, shared);  // second job is GPU-slow
  EXPECT_DOUBLE_EQ(stats.makespan.value(),
                   std::max(stats.per_job[0].epoch_time.value(),
                            stats.per_job[1].epoch_time.value()));
  EXPECT_GT(stats.per_job[1].epoch_time.value(), stats.per_job[0].epoch_time.value());
}

TEST(MultiJob, RejectsBadSpecs) {
  Fixture f;
  ClusterConfig shared;
  EXPECT_THROW((void)simulate_multijob_epoch({}, shared), ContractViolation);
  auto bad = f.job(0);
  bad.num_samples = 0;
  EXPECT_THROW((void)simulate_multijob_epoch({bad}, shared), ContractViolation);
  auto no_flow = f.job(0);
  no_flow.flow = nullptr;
  EXPECT_THROW((void)simulate_multijob_epoch({no_flow}, shared), ContractViolation);
}

}  // namespace
}  // namespace sophon::sim
