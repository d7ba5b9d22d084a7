// The metric pre-registration drift test: run the system end-to-end with
// every emitting subsystem lit up — prefetching loader over a packed shard,
// resilient fetches eating injected faults, the adaptive loop with its
// metric, ledger and critical-path hooks — and assert every `sophon_*` name
// the registry ends up holding has a row in obs::known_metrics() with the
// matching kind. An instrumentation point that invents a name fails here; a
// table row of the wrong kind fails the reverse test below.
#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <set>
#include <string>

#include "core/adapt/loop.h"
#include "loader/loader.h"
#include "net/fault.h"
#include "net/resilience.h"
#include "obs/critpath/monitor.h"
#include "obs/ledger.h"
#include "obs/metrics_table.h"
#include "shard/format.h"
#include "shard/pack.h"
#include "storage/dataset_store.h"
#include "storage/server.h"

namespace sophon::obs {
namespace {

/// Fails the first offloaded fetch of every sample with a transient error so
/// the resilience layer's retry/backoff metrics fire.
class FirstAttemptFails final : public net::StorageService {
 public:
  explicit FirstAttemptFails(net::StorageService& inner) : inner_(inner) {}

  net::FetchResponse fetch(const net::FetchRequest& request) override {
    if (request.directive.prefix_len > 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (failed_once_.insert(request.sample_id).second) {
        throw net::FetchError(net::FetchError::Kind::kTransient, "induced first failure");
      }
    }
    return inner_.fetch(request);
  }

 private:
  net::StorageService& inner_;
  std::mutex mutex_;
  std::set<std::uint64_t> failed_once_;
};

/// Drive a prefetching loader epoch (shard-backed server, transient faults,
/// resilient fetches) plus an adaptive run with fault replay and its
/// observer hooks, all into one registry.
void populate_full_run(MetricsRegistry& metrics) {
  auto profile = dataset::openimages_profile(24);
  profile.min_pixels = 6e4;
  profile.max_pixels = 2.5e5;
  const auto catalog = dataset::Catalog::generate(profile, 42);
  const auto pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  storage::DatasetStore store{catalog, 42, profile.quality};

  core::OffloadPlan plan(catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    plan.set(i, static_cast<std::uint8_t>(i % 3 == 0 ? 2 : 0));
  }

  shard::MaterializationPlan mat;
  mat.stage.assign(catalog.size(), 0);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (plan.prefix(i) > 0) {
      mat.stage[i] = 1;
      ++mat.materialized;
    }
  }
  const auto shard_path = std::filesystem::temp_directory_path() /
                          ("sophon_drift_" + std::to_string(::getpid()) + ".spshrd");
  ASSERT_TRUE(
      shard::pack_catalog(catalog, 42, profile.quality, pipe, cm, mat, shard_path).has_value());
  const auto reader = shard::ShardReader::open(shard_path);
  ASSERT_TRUE(reader.has_value());

  // Traffic ledger on the real fetch path: its sophon_ledger_* gauges and
  // record counter must be governed by the table like everything else.
  TrafficLedger loader_ledger({.top_k = 8, .metrics = &metrics});

  {
    storage::StorageServer server{store, pipe, cm,
                                  {.seed = 42, .metrics = &metrics, .shard = &*reader}};
    FirstAttemptFails flaky(server);
    net::RetryPolicy policy;
    policy.sleep = false;
    net::ResilientStorageService resilient(flaky, policy, &metrics, &loader_ledger);

    loader::DataLoader::Options options;
    options.num_workers = 2;
    options.queue_capacity = 8;
    options.seed = 42;
    options.epoch = 5;
    options.metrics = &metrics;
    options.ledger = &loader_ledger;
    options.prefetch.depth = 8;
    loader::DataLoader loader(resilient, pipe, plan, catalog.size(), options);
    loader.start();
    std::size_t count = 0;
    while (loader.next()) ++count;
    ASSERT_EQ(count, catalog.size());
    loader_ledger.publish_metrics();
  }
  std::filesystem::remove(shard_path);

  // Adaptive run under a mid-run bandwidth drop with fault replay; its hooks
  // feed the epoch gauges, ledger and critical-path metrics into the same
  // registry.
  const auto big = dataset::Catalog::generate(dataset::openimages_profile(300), 42);
  sim::ClusterConfig planned;
  planned.bandwidth = Bandwidth::mbps(8000.0);
  net::FaultProfile fault_profile;
  fault_profile.transient_fail_prob = 0.05;
  fault_profile.permanent_fail_prob = 0.01;
  fault_profile.corrupt_prob = 0.02;
  fault_profile.seed = 7;
  const net::FaultInjector faults(fault_profile);

  TrafficLedger sim_ledger({.top_k = 8, .metrics = &metrics});
  critpath::CritPathMonitor critpath_monitor(&metrics);
  core::adapt::RunOptions options;
  options.epochs = 6;
  options.faults = &faults;
  options.retry.sleep = false;
  options.bandwidth_at = [](std::size_t epoch) {
    return epoch < 2 ? Bandwidth::mbps(8000.0) : Bandwidth::mbps(400.0);
  };
  options.telemetry.metrics = &metrics;
  options.telemetry.ledger = &sim_ledger;
  options.telemetry.critpath = &critpath_monitor;
  const auto result = core::adapt::run_adaptive(
      big, pipe, cm,
      {.cluster = planned, .gpu_batch_time = Seconds(1.0), .num_samples = big.size()}, options);
  ASSERT_EQ(result.rows.size(), 6u);
  ASSERT_EQ(critpath_monitor.epochs(), 6u);
}

void expect_known(const std::string& name, MetricKind kind) {
  if (name.rfind("sophon_", 0) != 0) return;      // only the sophon_ namespace is governed
  if (name.rfind("sophon_bench_", 0) == 0) return;  // bench-local names are exempt
  const MetricInfo* info = find_metric(name);
  ASSERT_NE(info, nullptr) << "metric '" << name
                           << "' is emitted but missing from obs::known_metrics()";
  EXPECT_EQ(static_cast<int>(info->kind), static_cast<int>(kind))
      << "metric '" << name << "' registered as " << metric_kind_name(kind)
      << " but the table says " << metric_kind_name(info->kind);
}

TEST(MetricsTableDrift, EveryEmittedNameIsPreRegistered) {
  MetricsRegistry metrics;
  populate_full_run(metrics);

  const MetricsSnapshot snap = metrics.snapshot();
  // The run must actually have lit up the interesting subsystems, or the
  // drift test silently tests nothing.
  EXPECT_GT(snap.counters.count("sophon_shard_hit"), 0u);
  EXPECT_GT(snap.counters.count("sophon_fetch_retries"), 0u);
  EXPECT_GT(snap.counters.count("sophon_prefetch_issued"), 0u);
  EXPECT_GT(snap.counters.count("sophon_epochs_completed"), 0u);
  EXPECT_GT(snap.counters.count("sophon_fetch_attempt_bytes"), 0u);
  EXPECT_GT(snap.counters.count("sophon_ledger_records"), 0u);
  EXPECT_GT(snap.gauges.count("sophon_ledger_unattributed_bytes"), 0u);
  EXPECT_GT(snap.gauges.count("sophon_critpath_bottleneck"), 0u);
  EXPECT_GT(snap.gauges.count("sophon_critpath_blame_link_seconds"), 0u);

  for (const auto& [name, value] : snap.counters) expect_known(name, MetricKind::kCounter);
  for (const auto& [name, value] : snap.gauges) expect_known(name, MetricKind::kGauge);
  for (const auto& [name, dist] : snap.durations) expect_known(name, MetricKind::kDuration);
  for (const auto& [name, dist] : snap.histograms) expect_known(name, MetricKind::kHistogram);
}

// The reverse direction: every table row instantiates under its declared
// kind and surfaces in the exposition with its help text.
TEST(MetricsTable, RegisterKnownMetricsExposesEveryFamily) {
  MetricsRegistry registry;
  register_known_metrics(registry);
  const MetricsSnapshot snap = registry.snapshot();
  const std::string exposition = registry.expose();
  for (const MetricInfo& info : known_metrics()) {
    const std::string name(info.name);
    // The exposition suffixes the family name by kind (counter _total,
    // duration _seconds); the help text rides on the exposed family.
    std::string family = name;
    switch (info.kind) {
      case MetricKind::kCounter:
        EXPECT_EQ(snap.counters.count(name), 1u) << name;
        family += "_total";
        break;
      case MetricKind::kGauge:
        EXPECT_EQ(snap.gauges.count(name), 1u) << name;
        break;
      case MetricKind::kDuration:
        EXPECT_EQ(snap.durations.count(name), 1u) << name;
        family += "_seconds";
        break;
      case MetricKind::kHistogram:
        EXPECT_EQ(snap.histograms.count(name), 1u) << name;
        break;
    }
    EXPECT_NE(exposition.find("# HELP " + family + " "), std::string::npos)
        << "no help line for " << family;
  }
}

TEST(MetricsTable, SortedAndFindable) {
  const auto table = known_metrics();
  ASSERT_FALSE(table.empty());
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_LT(std::string_view(table[i - 1].name), std::string_view(table[i].name))
        << "table must stay sorted for find_metric's binary search";
  }
  for (const MetricInfo& info : table) {
    const MetricInfo* found = find_metric(info.name);
    ASSERT_NE(found, nullptr) << info.name;
    EXPECT_EQ(found, &info);
    EXPECT_NE(std::string_view(info.help), "") << info.name << " needs help text";
  }
  EXPECT_EQ(find_metric("sophon_not_a_metric"), nullptr);
  EXPECT_EQ(find_metric(""), nullptr);
}

}  // namespace
}  // namespace sophon::obs
