// The scheduling core's cost contract: each run evaluates a job's flow once
// per sample, whatever the discipline, and a recorded run fits the record
// it reserved up front.
#include "sim/schedule.h"

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "util/check.h"

namespace sophon::sim {
namespace {

constexpr std::size_t kSamples = 500;

// Offloaded and local samples, injected delay and a link latency: every
// sample can reach the most nodes the core records for one sample.
SampleFlow mixed_flow(std::size_t i) {
  SampleFlow f;
  f.wire = Bytes(static_cast<std::int64_t>((i % 7 + 1) * 32 * 1024));
  f.storage_cpu = i % 3 == 0 ? Seconds::millis(1.5) : Seconds(0.0);
  f.compute_cpu = Seconds::millis(1.0 + static_cast<double>(i % 4));
  f.delay = i % 11 == 0 ? Seconds::millis(0.5) : Seconds(0.0);
  return f;
}

ClusterConfig cluster() {
  ClusterConfig c;
  c.compute_cores = 4;
  c.storage_cores = 2;
  c.bandwidth = Bandwidth::mbps(800.0);
  c.link_latency = Seconds::millis(1.0);
  c.batch_size = 32;
  c.prefetch_batches = 2;
  return c;
}

/// A flow that counts its calls.
struct CountedFlow {
  std::size_t calls = 0;
  FlowFn fn = [this](std::size_t i) {
    ++calls;
    return mixed_flow(i);
  };
};

/// The record the core reserves for `samples` samples in `batches` batches.
std::size_t node_bound(std::size_t samples, std::size_t batches) {
  return 1 + 6 * samples + batches;
}

std::size_t batches_of(std::size_t samples) {
  return (samples + cluster().batch_size - 1) / cluster().batch_size;
}

std::vector<std::pair<std::string, WorkerLanes>> lane_configs() {
  std::vector<std::pair<std::string, WorkerLanes>> configs;
  WorkerLanes lanes;
  lanes.workers = 3;
  configs.emplace_back("depth 0", lanes);
  lanes.depth = 32;
  configs.emplace_back("depth 32", lanes);
  WorkerLanes budget = lanes;
  budget.depth = 8;
  budget.bytes_budget = Bytes(256 * 1024);
  configs.emplace_back("byte budget", budget);
  WorkerLanes admit = lanes;
  admit.admit = [](std::uint64_t id, Bytes) { return id % 3 != 0; };
  configs.emplace_back("admit rejects", admit);
  WorkerLanes local = lanes;
  local.served_locally = [](std::uint64_t id) { return id % 5 == 0; };
  configs.emplace_back("served locally", local);
  return configs;
}

template <class Rec>
std::size_t lane_calls(Rec& rec, const WorkerLanes& lanes) {
  CountedFlow flow;
  ResourceMap resources(cluster());
  const JobLoad job = single_job(cluster(), kSamples, flow.fn, Seconds::millis(20.0), 42, 0);
  LaneStats stats;
  (void)run_worker_lanes(rec, resources, job, lanes, stats);
  return flow.calls;
}

TEST(SimSchedule, WorkerLanesEvaluateEachSampleOnce) {
  for (const auto& [name, lanes] : lane_configs()) {
    SCOPED_TRACE(name);
    NoRecord plain;
    EXPECT_EQ(lane_calls(plain, lanes), kSamples);
    Recorder record;
    EXPECT_EQ(lane_calls(record, lanes), kSamples);
    EXPECT_EQ(record.visits().size(), kSamples);
    EXPECT_LE(record.nodes().capacity(), node_bound(kSamples, batches_of(kSamples)));
    EXPECT_LE(record.visits().capacity(), kSamples);
  }
}

template <class Rec>
void expect_window_calls(Rec& rec, std::size_t jobs) {
  std::vector<CountedFlow> flows(jobs);
  ResourceMap resources(cluster());
  std::vector<JobLoad> loads;
  for (std::size_t j = 0; j < jobs; ++j) {
    loads.push_back(single_job(cluster(), kSamples - 100 * j, flows[j].fn, Seconds::millis(20.0),
                               42 + j, 0));
    if (j > 0) {
      resources.compute.emplace_back(cluster().compute_cores);
      resources.gpu.emplace_back();
    }
  }
  (void)run_batch_window(rec, resources, std::span<const JobLoad>(loads), 2);
  for (std::size_t j = 0; j < jobs; ++j) EXPECT_EQ(flows[j].calls, loads[j].num_samples);
}

TEST(SimSchedule, BatchWindowEvaluatesEachSampleOnce) {
  for (const std::size_t jobs : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(jobs) + " jobs");
    NoRecord plain;
    expect_window_calls(plain, jobs);
    Recorder record;
    expect_window_calls(record, jobs);
    std::size_t samples = 0;
    std::size_t batches = 0;
    for (std::size_t j = 0; j < jobs; ++j) {
      samples += kSamples - 100 * j;
      batches += batches_of(kSamples - 100 * j);
    }
    EXPECT_EQ(record.visits().size(), samples);
    EXPECT_LE(record.nodes().capacity(), node_bound(samples, batches));
    EXPECT_LE(record.visits().capacity(), samples);
  }
}

TEST(SimSchedule, OversizeRecordIsRejectedBeforeAnyFlow) {
  // One sample past the largest epoch whose node ids fit in 32 bits.
  const std::size_t samples = (INT32_MAX - 1) / 6 + 1;
  CountedFlow flow;
  const JobLoad job = single_job(cluster(), samples, flow.fn, Seconds::millis(20.0), 42, 0);
  {
    Recorder record;
    ResourceMap resources(cluster());
    LaneStats stats;
    EXPECT_THROW((void)run_worker_lanes(record, resources, job, WorkerLanes{}, stats),
                 ContractViolation);
  }
  {
    Recorder record;
    ResourceMap resources(cluster());
    EXPECT_THROW((void)run_batch_window(record, resources, {&job, 1}, 2), ContractViolation);
  }
  EXPECT_EQ(flow.calls, 0u);
}

}  // namespace
}  // namespace sophon::sim
