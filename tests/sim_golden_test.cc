// Golden pins for every epoch simulator and the critical-path analyzer.
//
// Each case runs one configuration of the scheduling model and prints the
// resulting statistics as exact doubles (hex floats, "%a"), so any change in
// the arithmetic — an operation reordered, a tie broken differently, an event
// charged to another resource — shows up as a diff against values recorded
// before the simulators shared one scheduling core.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/resilience.h"
#include "obs/critpath/critpath.h"
#include "prefetch/replay.h"
#include "sim/multijob.h"
#include "sim/schedule.h"
#include "sim/trainer.h"
#include "util/rng.h"

namespace sophon {
namespace {

constexpr std::size_t kSamples = 256;

// Heterogeneous demands: offloaded and local samples, small and large
// payloads, occasional injected delay and zero-compute samples.
sim::SampleFlow mixed_flow(std::size_t i) {
  sim::SampleFlow f;
  f.wire = i % 7 == 3 ? Bytes(2 * 1024) : Bytes(static_cast<std::int64_t>((i % 7 + 1) * 64 * 1024));
  f.storage_cpu = i % 3 == 0 ? Seconds::millis(2.0 * static_cast<double>(i % 5 + 1)) : Seconds(0.0);
  f.compute_cpu = Seconds::millis(1.0 * static_cast<double>(i % 4));
  f.delay = i % 11 == 0 ? Seconds::millis(0.5) : Seconds(0.0);
  f.stage = f.storage_cpu.value() > 0.0 ? 2 : 0;
  return f;
}

// The same demands without injected delay (multi-job pins).
sim::SampleFlow undelayed_flow(std::size_t i) {
  sim::SampleFlow f = mixed_flow(i);
  f.delay = Seconds(0.0);
  return f;
}

sim::SampleFlow raw_flow(std::size_t i) {
  sim::SampleFlow f;
  f.wire = Bytes(static_cast<std::int64_t>((i % 5 + 2) * 96 * 1024));
  f.compute_cpu = Seconds::millis(1.0 + static_cast<double>(i % 3));
  return f;
}

sim::ClusterConfig cluster() {
  sim::ClusterConfig c;
  c.compute_cores = 4;
  c.storage_cores = 2;
  c.storage_core_speed = 0.8;
  c.bandwidth = Bandwidth::mbps(800.0);
  c.link_latency = Seconds::millis(1.0);
  c.batch_size = 32;
  c.prefetch_batches = 2;
  return c;
}

const net::FaultInjector& link_faults() {
  static const net::FaultInjector faults = [] {
    net::FaultProfile profile;
    profile.latency_spike_prob = 0.3;
    profile.latency_spike = Seconds::millis(25.0);
    profile.bandwidth_dip_prob = 0.2;
    profile.bandwidth_dip_factor = 3.0;
    profile.seed = 7;
    return net::FaultInjector(profile);
  }();
  return faults;
}

const net::FaultInjector& fetch_faults() {
  static const net::FaultInjector faults = [] {
    net::FaultProfile profile;
    profile.transient_fail_prob = 0.2;
    profile.permanent_fail_prob = 0.05;
    profile.corrupt_prob = 0.05;
    profile.seed = 11;
    return net::FaultInjector(profile);
  }();
  return faults;
}

net::RetryPolicy retry_policy() {
  net::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.seed = 11;
  return retry;
}

class Pins {
 public:
  void add(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    out_ += name + "=" + buf + "\n";
  }
  void add(const std::string& name, Seconds value) { add(name, value.value()); }
  void count(const std::string& name, std::uint64_t value) {
    out_ += name + "=" + std::to_string(value) + "\n";
  }
  void epoch(const std::string& prefix, const sim::EpochStats& s) {
    add(prefix + "epoch_time", s.epoch_time);
    count(prefix + "traffic", static_cast<std::uint64_t>(s.traffic.count()));
    add(prefix + "gpu_busy", s.gpu_busy);
    add(prefix + "gpu_utilization", s.gpu_utilization);
    add(prefix + "storage_cpu_busy", s.storage_cpu_busy);
    add(prefix + "compute_cpu_busy", s.compute_cpu_busy);
    count(prefix + "samples", s.samples);
    count(prefix + "batches", s.batches);
    count(prefix + "offloaded", s.offloaded_samples);
  }
  void replay(const prefetch::ReplayStats& s) {
    count("issued", s.issued);
    count("hits", s.hits);
    count("late_hits", s.late_hits);
    count("demand_fetches", s.demand_fetches);
    count("served_locally", s.served_locally);
    count("skipped_deprioritized", s.skipped_deprioritized);
    add("worker_stall", s.worker_stall);
    count("max_inflight", s.max_inflight);
  }
  void critpath(const obs::critpath::Analysis& a) {
    add("cp.epoch_time", a.epoch_time);
    add("cp.storage_cpu", a.blame.storage_cpu);
    add("cp.link", a.blame.link);
    add("cp.compute_cpu", a.blame.compute_cpu);
    add("cp.gpu", a.blame.gpu);
    add("cp.delay", a.blame.delay);
    count("cp.nodes", a.nodes);
    count("cp.path", a.path.size());
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  std::string out_;
};

obs::critpath::EpochParams params_for(const sim::ClusterConfig& c,
                                      obs::critpath::Discipline discipline,
                                      const prefetch::ReplayOptions& replay = {}) {
  obs::critpath::EpochParams p;
  p.cluster = c;
  p.gpu_batch_time = Seconds::millis(20.0);
  p.seed = 42;
  p.epoch_index = 1;
  p.num_samples = kSamples;
  p.discipline = discipline;
  p.replay = replay;
  return p;
}

obs::critpath::DemandFn demand_of(std::function<sim::SampleFlow(std::size_t)> flow) {
  return [flow = std::move(flow)](std::size_t i) {
    const sim::SampleFlow f = flow(i);
    return obs::critpath::SampleDemand{f.storage_cpu, f.compute_cpu, f.wire, f.delay};
  };
}

std::string window(bool faulty) {
  sim::ClusterConfig c = cluster();
  std::function<sim::SampleFlow(std::size_t)> flow = mixed_flow;
  Pins pins;
  if (faulty) {
    c.link_faults = &link_faults();
    sim::FaultReplayStats stats;
    const auto counted = sim::faulty_flow(mixed_flow, raw_flow, fetch_faults(), retry_policy(), 1,
                                          &stats);
    pins.epoch("", sim::simulate_epoch_flows(kSamples, counted, c, Seconds::millis(20.0), 42, 1));
    pins.count("fault.retries", stats.retries);
    pins.count("fault.degraded", stats.degraded);
    pins.count("fault.failed", stats.failed);
    pins.add("fault.backoff", stats.backoff);
    flow = sim::faulty_flow(mixed_flow, raw_flow, fetch_faults(), retry_policy(), 1);
  } else {
    pins.epoch("", sim::simulate_epoch_flows(kSamples, flow, c, Seconds::millis(20.0), 42, 1));
  }
  pins.critpath(obs::critpath::analyze_epoch(
      demand_of(flow), params_for(c, obs::critpath::Discipline::kBatchWindow)));
  return pins.str();
}

// Three storage nodes: sample i's offloaded prefix runs on node
// derive_seed(5, i) % 3, through JobLoad::shards.
std::string sharded() {
  const sim::ClusterConfig c = cluster();
  std::vector<std::uint16_t> shards(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    shards[i] = static_cast<std::uint16_t>(derive_seed(5, i) % 3);
  }
  sim::ResourceMap resources(c);
  resources.storage.assign(3, sim::CpuPool(c.storage_cores, c.storage_core_speed));
  const sim::FlowFn flow = mixed_flow;
  sim::JobLoad job = sim::single_job(c, kSamples, flow, Seconds::millis(20.0), 42, 1);
  job.shards = shards;
  sim::NoRecord plain;
  sim::EpochStats totals =
      sim::run_batch_window(plain, resources, {&job, 1}, c.prefetch_batches).front();
  totals.storage_cpu_busy = resources.storage_busy();
  Pins pins;
  pins.epoch("", totals);
  for (std::size_t n = 0; n < resources.storage.size(); ++n) {
    pins.add("node" + std::to_string(n) + "_cpu_busy", resources.storage[n].busy_time());
  }
  return pins.str();
}

std::string multijob() {
  std::vector<sim::JobSpec> jobs(3);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].num_samples = kSamples - 40 * j;
    jobs[j].flow = undelayed_flow;
    jobs[j].gpu_batch_time = Seconds::millis(15.0 + 5.0 * static_cast<double>(j));
    jobs[j].batch_size = 32;
    jobs[j].compute_cores = 3 + static_cast<int>(j);
    jobs[j].seed = 42 + j;
  }
  jobs[1].private_storage_cores = 2;  // jobs 0 and 2 contend on the shared pool
  const auto stats = sim::simulate_multijob_epoch(jobs, cluster());
  Pins pins;
  for (std::size_t j = 0; j < stats.per_job.size(); ++j) {
    pins.epoch("job" + std::to_string(j) + ".", stats.per_job[j]);
  }
  pins.add("makespan", stats.makespan);
  pins.count("total_traffic", static_cast<std::uint64_t>(stats.total_traffic.count()));
  pins.add("shared_storage_busy", stats.shared_storage_busy);
  return pins.str();
}

std::string lanes(std::size_t depth, Bytes budget, bool local) {
  prefetch::ReplayOptions options;
  options.workers = 3;
  options.prefetch.depth = depth;
  options.prefetch.bytes_budget = budget;
  if (local) options.served_locally = [](std::uint64_t id) { return id % 13 == 0; };
  const sim::ClusterConfig c = cluster();
  const auto result =
      prefetch::replay_epoch(kSamples, mixed_flow, c, Seconds::millis(20.0), 42, 1, options);
  Pins pins;
  pins.epoch("", result.epoch);
  pins.replay(result.prefetch);
  pins.critpath(obs::critpath::analyze_epoch(
      demand_of(mixed_flow), params_for(c, obs::critpath::Discipline::kWorkerReplay, options)));
  return pins.str();
}

struct GoldenCase {
  const char* name;
  std::string (*run)();
  const char* expected;
};

const GoldenCase kCases[] = {
    {"window_healthy", [] { return window(false); }, R"(
epoch_time=0x1.36fa82e87d2bfp-1
traffic=57092096
gpu_busy=0x1.47ae147ae147bp-3
gpu_utilization=0x1.0dbfae892f21dp-2
storage_cpu_busy=0x1.47ae147ae1478p-1
compute_cpu_busy=0x1.89374bc6a7effp-2
samples=256
batches=8
offloaded=86
cp.epoch_time=0x1.36fa82e87d2bfp-1
cp.storage_cpu=0x1.9999999999999p-7
cp.link=0x1.24cd74927912bp-1
cp.compute_cpu=0x1.89374bc6a7fp-9
cp.gpu=0x1.47ae147ae148p-6
cp.delay=0x0p+0
cp.nodes=823
cp.path=258
)"},
    {"window_faulty", [] { return window(true); }, R"(
epoch_time=0x1.b5f231d2e3e41p-1
traffic=61450240
gpu_busy=0x1.47ae147ae147bp-3
gpu_utilization=0x1.7f16b04d6d89bp-3
storage_cpu_busy=0x1.30a3d70a3d709p-1
compute_cpu_busy=0x1.89374bc6a7effp-2
samples=256
batches=8
offloaded=80
fault.retries=65
fault.degraded=0
fault.failed=16
fault.backoff=0x1.475f23c8d676dp-4
cp.epoch_time=0x1.b5f231d2e3e41p-1
cp.storage_cpu=0x1.9999999999998p-7
cp.link=0x1.a2aba68c713aep-1
cp.compute_cpu=0x1.0624dd2f1aap-9
cp.gpu=0x1.47ae147ae148p-6
cp.delay=0x1.9c8f5f061d21fp-9
cp.nodes=865
cp.path=260
)"},
    {"sharded_3_nodes", sharded, R"(
epoch_time=0x1.36fa82e87d2bfp-1
traffic=57092096
gpu_busy=0x1.47ae147ae147bp-3
gpu_utilization=0x1.0dbfae892f21dp-2
storage_cpu_busy=0x1.47ae147ae147ep-1
compute_cpu_busy=0x1.89374bc6a7effp-2
samples=256
batches=8
offloaded=86
node0_cpu_busy=0x1.e147ae147ae19p-3
node1_cpu_busy=0x1.7ae147ae147b1p-3
node2_cpu_busy=0x1.c28f5c28f5c2cp-3
)"},
    {"multijob_shared_and_private", multijob, R"(
job0.epoch_time=0x1.79d96536908c5p+0
job0.traffic=57092096
job0.gpu_busy=0x1.eb851eb851eb8p-4
job0.gpu_utilization=0x1.4d039d88bed9fp-4
job0.storage_cpu_busy=0x1.47ae147ae1472p-1
job0.compute_cpu_busy=0x1.89374bc6a7effp-2
job0.samples=256
job0.batches=8
job0.offloaded=86
job1.epoch_time=0x1.678d9db7e1597p+0
job1.traffic=48363520
job1.gpu_busy=0x1.1eb851eb851ecp-3
job1.gpu_utilization=0x1.98494ad383402p-4
job1.storage_cpu_busy=0x1.1333333333334p-1
job1.compute_cpu_busy=0x1.4bc6a7ef9db27p-2
job1.samples=216
job1.batches=7
job1.offloaded=72
job2.epoch_time=0x1.476b99ac0e10cp+0
job2.traffic=39438336
job2.gpu_busy=0x1.3333333333333p-3
job2.gpu_utilization=0x1.e06175aac13cep-4
job2.storage_cpu_busy=0x1.c51eb851eb844p-2
job2.compute_cpu_busy=0x1.0e5604189374fp-2
job2.samples=176
job2.batches=6
job2.offloaded=59
makespan=0x1.79d96536908c5p+0
total_traffic=144893952
shared_storage_busy=0x1.9eb851eb851e4p+0
)"},
    {"lanes_depth0", [] { return lanes(0, Bytes(0), false); }, R"(
epoch_time=0x1.04590d8d5c48dp+0
traffic=57092096
gpu_busy=0x1.47ae147ae147bp-3
gpu_utilization=0x1.42352a4772141p-3
storage_cpu_busy=0x1.47ae147ae1478p-1
compute_cpu_busy=0x1.89374bc6a7effp-2
samples=256
batches=8
offloaded=86
issued=0
hits=0
late_hits=0
demand_fetches=256
served_locally=0
skipped_deprioritized=0
worker_stall=0x1.4d2d83f1bc9a1p+1
max_inflight=3
cp.epoch_time=0x1.04590d8d5c48dp+0
cp.storage_cpu=0x1.a8f5c28f5c28ap-2
cp.link=0x1.f641655010e23p-2
cp.compute_cpu=0x1.6872b020c49bep-4
cp.gpu=0x1.47ae147ae146p-6
cp.delay=0x1.cac083126e78p-9
cp.nodes=1143
cp.path=359
)"},
    {"lanes_depth_budget", [] { return lanes(8, Bytes::kib(256), false); }, R"(
epoch_time=0x1.24d4f3e2bb4acp+0
traffic=57092096
gpu_busy=0x1.47ae147ae147bp-3
gpu_utilization=0x1.1e770b62d6bf7p-3
storage_cpu_busy=0x1.47ae147ae1478p-1
compute_cpu_busy=0x1.89374bc6a7effp-2
samples=256
batches=8
offloaded=86
issued=219
hits=219
late_hits=218
demand_fetches=37
served_locally=0
skipped_deprioritized=37
worker_stall=0x1.7de75d71cb1d9p+1
max_inflight=7
cp.epoch_time=0x1.24d4f3e2bb4acp+0
cp.storage_cpu=0x1.c51eb851eb84cp-2
cp.link=0x1.56352b5af79bbp-1
cp.compute_cpu=0x1.26e978d4fdfp-7
cp.gpu=0x1.47ae147ae148p-6
cp.delay=0x1.0624dd2f1a94p-8
cp.nodes=1143
cp.path=417
)"},
    {"lanes_served_locally", [] { return lanes(8, Bytes(0), true); }, R"(
epoch_time=0x1.2da3fd1fd0d5ap-1
traffic=52498432
gpu_busy=0x1.47ae147ae147bp-3
gpu_utilization=0x1.1619759e6b5adp-2
storage_cpu_busy=0x1.2cccccccccccbp-1
compute_cpu_busy=0x1.89374bc6a7effp-2
samples=256
batches=8
offloaded=79
issued=202
hits=202
late_hits=139
demand_fetches=34
served_locally=20
skipped_deprioritized=34
worker_stall=0x1.4ef64d23ca344p+0
max_inflight=10
cp.epoch_time=0x1.2da3fd1fd0d5ap-1
cp.storage_cpu=0x1.28f5c28f5c294p-4
cp.link=0x1.e68b8fc0a7cf5p-2
cp.compute_cpu=0x1.5810624dd2f2p-6
cp.gpu=0x1.47ae147ae148p-6
cp.delay=0x1.0624dd2f1aap-11
cp.nodes=1074
cp.path=226
)"},
};

TEST(GoldenPins, EverySimulatorConfigurationIsBitIdentical) {
  for (const GoldenCase& c : kCases) {
    // The raw strings open with a newline so the tables read one field a line.
    EXPECT_EQ(c.run(), c.expected + 1) << "case " << c.name;
  }
}

}  // namespace
}  // namespace sophon
