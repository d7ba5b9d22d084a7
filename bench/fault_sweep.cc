// Fault sweep: epoch-time and traffic impact of an unreliable fetch path.
//
// Not a paper figure — an operational question the paper's Fig. 4 gestures
// at: how does SOPHON's plan hold up when the storage node starts failing?
// We replay seeded fault traces (transient failures with retries, corrupt
// payloads, permanent offload failures with graceful degradation to raw
// fetches) over the SOPHON plan's flows and report the damage. See
// EXPERIMENTS.md ("Fault sweep") for how to read the output.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/decision.h"
#include "core/profiler.h"
#include "net/fault.h"
#include "net/resilience.h"
#include "sim/trainer.h"

namespace sophon {
namespace {

struct Scenario {
  std::string name;
  net::FaultProfile profile;
};

int run() {
  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(8000), 42);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto config = bench::paper_config();
  const auto gpu = model::GpuModel::lookup(config.net, config.gpu);
  const Seconds batch_time = gpu.batch_time(config.cluster.batch_size);

  const Seconds gpu_epoch_time =
      core::gpu_epoch_time(catalog.size(), config.cluster.batch_size, batch_time);

  const auto profiles = core::profile_stage2(catalog, pipe, cm);
  const auto decision = core::decide_offloading(profiles, config.cluster, gpu_epoch_time);
  const auto& plan = decision.plan;

  const auto flow = sim::plan_flow(catalog, pipe, cm, plan.assignment());
  const auto raw_flow = sim::plan_flow(catalog, pipe, cm, {});

  net::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff = Seconds::millis(5.0);
  retry.seed = 42;

  auto scenario = [](std::string name) {
    Scenario s;
    s.name = std::move(name);
    s.profile.seed = 42;
    s.profile.offload_only = true;
    return s;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back(scenario("healthy"));
  for (const double p : {0.02, 0.05, 0.10, 0.20}) {
    auto s = scenario(strf("transient %2.0f%%", 100.0 * p));
    s.profile.transient_fail_prob = p;
    scenarios.push_back(s);
  }
  {
    auto s = scenario("corrupt 5%");
    s.profile.corrupt_prob = 0.05;
    scenarios.push_back(s);
  }
  {
    auto s = scenario("permanent 10%");
    s.profile.permanent_fail_prob = 0.10;
    scenarios.push_back(s);
  }
  {
    auto s = scenario("link spikes 10%");
    s.profile.latency_spike_prob = 0.10;
    s.profile.latency_spike = Seconds::millis(50.0);
    s.profile.bandwidth_dip_prob = 0.10;
    s.profile.bandwidth_dip_factor = 4.0;
    scenarios.push_back(s);
  }

  bench::print_header(
      "Fault sweep — SOPHON plan under an unreliable fetch path",
      "n/a (operational extension; paper assumes a healthy 500 Mbps link)");

  TextTable table({"scenario", "epoch time", "traffic", "retries", "degraded", "failed",
                   "vs healthy"});
  double healthy_epoch = 0.0;
  for (const auto& s : scenarios) {
    const net::FaultInjector faults(s.profile);
    sim::FaultReplayStats replay;
    auto cluster = config.cluster;
    std::function<sim::SampleFlow(std::size_t)> run_flow = flow;
    if (faults.enabled()) {
      cluster.link_faults = &faults;
      run_flow = sim::faulty_flow(flow, raw_flow, faults, retry, 0, &replay);
    }
    const auto stats =
        sim::simulate_epoch_flows(catalog.size(), run_flow, cluster, batch_time, 42, 0);
    if (healthy_epoch == 0.0) healthy_epoch = stats.epoch_time.value();
    table.add_row({s.name, strf("%.1f s", stats.epoch_time.value()),
                   bench::gb(stats.traffic), strf("%llu", (unsigned long long)replay.retries),
                   strf("%zu", replay.degraded), strf("%zu", replay.failed),
                   strf("%+.1f%%", 100.0 * (stats.epoch_time.value() / healthy_epoch - 1.0))});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nDegraded samples ship raw bytes (full local pipeline), so permanent\n"
      "offload failures show up as extra traffic, not a stalled epoch.\n");
  return 0;
}

}  // namespace
}  // namespace sophon

int main() { return sophon::run(); }
