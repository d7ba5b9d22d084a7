// The tentpole acceptance tests for the traffic ledger: every byte the link
// counter sees must be attributed to exactly one cause.
//
// Three angles:
//  - the DES adaptive loop, with injected faults, retries, degradation and a
//    mid-run replan — every epoch boundary must reconcile byte-exactly;
//  - the real threaded fetch path (loader workers + prefetch scheduler +
//    resilience + shard-backed server with a corrupted entry), reconciled
//    against a wire meter sitting where the bytes actually arrive;
//  - a shard ablation A/B pair, where `traffic-diff` must attribute the
//    traffic drop to shard-hit bytes displacing demand bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "core/adapt/loop.h"
#include "loader/loader.h"
#include "net/fault.h"
#include "net/resilience.h"
#include "obs/ledger.h"
#include "shard/format.h"
#include "shard/pack.h"
#include "storage/dataset_store.h"
#include "storage/server.h"

namespace sophon::obs {
namespace {

constexpr auto kDemandIdx = static_cast<std::size_t>(TrafficCause::kDemand);
constexpr auto kRetryIdx = static_cast<std::size_t>(TrafficCause::kRetry);
constexpr auto kShardHitIdx = static_cast<std::size_t>(TrafficCause::kShardHit);

TEST(LedgerSimReconciliation, ByteExactAcrossFaultsRetriesAndAMidRunReplan) {
  // 600 samples at 8 Gbps: the greedy offloads nothing up front, so the
  // bandwidth collapse below leaves it the most to re-decide — the scenario
  // the adapt-loop tests already pin as producing exactly one replan.
  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(600), 42);
  const auto pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  sim::ClusterConfig planned;
  planned.bandwidth = Bandwidth::mbps(8000.0);

  net::FaultProfile fault_profile;
  fault_profile.transient_fail_prob = 0.05;
  fault_profile.permanent_fail_prob = 0.01;
  fault_profile.corrupt_prob = 0.02;
  fault_profile.seed = 7;
  const net::FaultInjector faults(fault_profile);

  MetricsRegistry metrics;
  TrafficLedger ledger({.top_k = 16, .metrics = &metrics});
  core::adapt::RunOptions options;
  options.epochs = 6;
  options.adapt = true;
  options.faults = &faults;
  options.retry.sleep = false;
  // Bandwidth collapses at epoch 3; the adaptive loop must replan, and the
  // ledger must keep reconciling across the plan switch.
  options.bandwidth_at = [](std::size_t epoch) {
    return epoch >= 3 ? Bandwidth::mbps(250.0) : Bandwidth::mbps(8000.0);
  };
  options.telemetry.metrics = &metrics;
  options.telemetry.ledger = &ledger;

  const auto result = core::adapt::run_adaptive(
      catalog, pipe, cm,
      {.cluster = planned, .gpu_batch_time = Seconds(1.0), .num_samples = catalog.size()},
      options);
  ASSERT_EQ(result.rows.size(), 6u);
  ASSERT_GT(result.replans, 0u) << "scenario must actually replan mid-run";

  const LedgerExport exported = ledger.export_state();
  ASSERT_EQ(exported.epochs.size(), 6u);
  std::int64_t link_sum = 0;
  std::set<std::uint64_t> generations;
  for (std::size_t i = 0; i < exported.epochs.size(); ++i) {
    const LedgerEpochRow& row = exported.epochs[i];
    // The hard invariant: every epoch boundary closes byte-exactly, faults,
    // retries, degradations and the replan included.
    EXPECT_EQ(row.unattributed_bytes, 0) << "epoch " << i;
    EXPECT_EQ(row.link_bytes, result.rows[i].traffic.count()) << "epoch " << i;
    EXPECT_EQ(row.attributed_bytes, row.link_bytes) << "epoch " << i;
    // Plans produced by decide_offloading carry a traffic forecast.
    EXPECT_GE(row.predicted_bytes, 0) << "epoch " << i;
    EXPECT_GE(row.baseline_bytes, 0) << "epoch " << i;
    EXPECT_GE(row.baseline_bytes, row.predicted_bytes) << "epoch " << i;
    link_sum += row.link_bytes;
    generations.insert(row.plan_generation);
  }
  EXPECT_GE(generations.size(), 2u) << "epoch rows must span both plan generations";
  EXPECT_EQ(exported.total(), link_sum);
  EXPECT_EQ(exported.unattributed_bytes, 0);
  // The fault profile has corrupt responses: retry bytes must be visible.
  EXPECT_GT(exported.cause_bytes[kRetryIdx], 0);
  EXPECT_GT(exported.cause_bytes[kDemandIdx], 0);
  EXPECT_EQ(metrics.gauge("sophon_ledger_unattributed_bytes").value(), 0.0);
  EXPECT_EQ(metrics.gauge("sophon_ledger_attributed_bytes").value(),
            static_cast<double>(link_sum));
}

struct ThreadedFixture {
  explicit ThreadedFixture(std::size_t samples = 24, double min_pixels = 6e4,
                           double max_pixels = 2.5e5)
      : profile([=] {
          auto p = dataset::openimages_profile(samples);
          p.min_pixels = min_pixels;
          p.max_pixels = max_pixels;
          return p;
        }()),
        catalog(dataset::Catalog::generate(profile, 42)) {}

  dataset::DatasetProfile profile;
  dataset::Catalog catalog;
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  storage::DatasetStore store{catalog, 42, profile.quality};

  core::OffloadPlan mixed_plan() {
    core::OffloadPlan plan(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      plan.set(i, static_cast<std::uint8_t>(i % 3 == 0 ? 2 : 0));
    }
    return plan;
  }

  shard::MaterializationPlan materialize_offloaded(const core::OffloadPlan& plan,
                                                   std::uint8_t stage) {
    shard::MaterializationPlan mat;
    mat.stage.assign(catalog.size(), 0);
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      if (plan.prefix(i) > 0) {
        mat.stage[i] = stage;
        ++mat.materialized;
      }
    }
    return mat;
  }

  net::RetryPolicy retry_policy() {
    net::RetryPolicy policy;
    policy.max_attempts = 4;
    policy.initial_backoff = Seconds::millis(0.1);
    policy.sleep = false;
    policy.seed = 42;
    return policy;
  }
};

TEST(LedgerThreadedReconciliation, MatchesTheWireMeterAcrossFaultsPrefetchAndShards) {
  // 48 samples: enough offloaded samples that the chosen fault seed yields
  // corrupt arrivals, degradations AND clean offloaded fetches.
  ThreadedFixture f(48);
  const auto plan = f.mixed_plan();
  const auto mat = f.materialize_offloaded(plan, /*stage=*/1);
  const auto shard_path = std::filesystem::temp_directory_path() /
                          ("sophon_ledger_reconcile_" + std::to_string(::getpid()) + ".spshrd");
  ASSERT_TRUE(
      shard::pack_catalog(f.catalog, 42, f.profile.quality, f.pipe, f.cm, mat, shard_path)
          .has_value());

  net::FaultProfile fault_profile;
  fault_profile.transient_fail_prob = 0.08;
  fault_profile.corrupt_prob = 0.2;
  fault_profile.permanent_fail_prob = 0.15;
  fault_profile.offload_only = true;  // the raw degradation path stays alive
  fault_profile.seed = 7;
  const net::FaultInjector faults(fault_profile);
  constexpr std::uint32_t kMaxAttempts = 4;

  // Corrupt-arrived responses are what the ledger books as retry bytes; the
  // seed must produce at least one.
  std::size_t expected_corrupt_arrivals = 0;
  for (std::size_t i = 0; i < f.catalog.size(); ++i) {
    if (plan.prefix(i) == 0) continue;
    for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      const auto kind = faults.fetch_fault(i, /*epoch=*/0, attempt, /*offloaded=*/true);
      if (kind == net::FaultKind::kCorrupt) ++expected_corrupt_arrivals;
      if (kind == net::FaultKind::kNone || kind == net::FaultKind::kPermanent) break;
    }
  }
  ASSERT_GT(expected_corrupt_arrivals, 0u);

  // Pick a materialized sample whose (deterministic) fault sequence lets the
  // offloaded fetch succeed — corrupting *its* shard entry guarantees the
  // run exercises shard-corrupt-refetch instead of degrading the victim to a
  // raw fallback before the shard is ever consulted.
  const auto offloaded_fetch_succeeds = [&](std::uint64_t sample) {
    for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      const auto kind = faults.fetch_fault(sample, /*epoch=*/0, attempt, /*offloaded=*/true);
      if (kind == net::FaultKind::kNone) return true;
      if (kind == net::FaultKind::kPermanent) return false;
    }
    return false;  // exhausted
  };
  std::uint64_t victim_id = f.catalog.size();
  std::size_t expected_degraded = 0;
  for (std::size_t i = 0; i < f.catalog.size(); ++i) {
    if (plan.prefix(i) == 0) continue;
    if (offloaded_fetch_succeeds(i)) {
      if (victim_id == f.catalog.size()) victim_id = i;
    } else {
      ++expected_degraded;
    }
  }
  ASSERT_LT(victim_id, f.catalog.size()) << "no offloaded sample survives its fault sequence";
  // The seed must make the scenario interesting: at least one offloaded
  // sample degrades to the raw fallback.
  ASSERT_GT(expected_degraded, 0u);

  // Flip one payload bit of the victim's shard entry so the server's crc
  // check fires and re-serves it live (provenance shard-corrupt).
  {
    const auto pristine = shard::ShardReader::open(shard_path);
    ASSERT_TRUE(pristine.has_value());
    const auto* victim = pristine->find(victim_id);
    ASSERT_NE(victim, nullptr);
    std::fstream file(shard_path, std::ios::binary | std::ios::in | std::ios::out);
    const auto offset = static_cast<std::streamoff>(victim->offset + victim->length / 2);
    file.seekg(offset);
    char byte = 0;
    file.get(byte);
    file.seekp(offset);
    file.put(static_cast<char>(byte ^ 0x01));
  }
  const auto reader = shard::ShardReader::open(shard_path);
  ASSERT_TRUE(reader.has_value());

  MetricsRegistry metrics;
  TrafficLedger ledger({.top_k = 16, .metrics = &metrics});
  {
    storage::StorageServer server{f.store, f.pipe, f.cm,
                                  {.seed = 42, .metrics = &metrics, .shard = &*reader}};
    net::FaultyStorageService faulty(server, faults);
    // The meter sits between the fault injector and the resilience layer, so
    // corrupt responses are counted at the size that actually crossed the
    // wire — the ground truth the ledger must match.
    net::MeteringStorageService meter(faulty);
    net::ResilientStorageService resilient(meter, f.retry_policy(), &metrics, &ledger);

    loader::DataLoader::Options options;
    options.num_workers = 3;
    options.queue_capacity = 8;
    options.seed = 42;
    options.epoch = 0;
    options.metrics = &metrics;
    options.ledger = &ledger;
    options.prefetch.depth = 8;
    options.prefetch.deprioritize_offloaded = false;
    options.prefetch.deprioritize_below = Bytes(0);
    loader::DataLoader loader(resilient, f.pipe, plan, f.catalog.size(), options);
    loader.start();
    std::size_t count = 0;
    while (loader.next()) ++count;
    ASSERT_EQ(count, f.catalog.size());

    // All causes the scenario provokes must be represented...
    EXPECT_GT(ledger.total(TrafficCause::kRetry).count(), 0);
    EXPECT_GT(ledger.total(TrafficCause::kRawFallback).count(), 0);
    EXPECT_GT(ledger.total(TrafficCause::kShardHit).count(), 0);
    EXPECT_GT(ledger.total(TrafficCause::kShardCorruptRefetch).count(), 0);
    EXPECT_GT(ledger.total(TrafficCause::kPrefetch).count() +
                  ledger.total(TrafficCause::kPrefetchWasted).count(),
              0);
    // ...and the partition must close byte-exactly against the meter: every
    // response that arrived client-side is attributed to exactly one cause.
    const LedgerReconciliation rec = ledger.reconcile(meter.traffic());
    EXPECT_TRUE(rec.exact()) << "unattributed " << rec.unattributed_bytes << " B of "
                             << rec.link_bytes << " (ledger " << rec.ledger_bytes << ")";
    ledger.end_epoch(0, meter.traffic(), /*plan_generation=*/0);
    EXPECT_EQ(metrics.gauge("sophon_ledger_unattributed_bytes").value(), 0.0);
  }
  std::filesystem::remove(shard_path);
}

/// One fault-free loader epoch into `ledger`; returns the metered wire total.
Bytes run_ledgered_epoch(ThreadedFixture& f, const core::OffloadPlan& plan,
                         const shard::ShardReader* shard, TrafficLedger& ledger) {
  storage::StorageServer server{f.store, f.pipe, f.cm, {.seed = 42, .shard = shard}};
  net::MeteringStorageService meter(server);
  loader::DataLoader::Options options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.seed = 42;
  options.epoch = 0;
  options.ledger = &ledger;
  loader::DataLoader loader(meter, f.pipe, plan, f.catalog.size(), options);
  loader.start();
  std::size_t count = 0;
  while (loader.next()) ++count;
  EXPECT_EQ(count, f.catalog.size());
  EXPECT_TRUE(ledger.reconcile(meter.traffic()).exact());
  return meter.traffic();
}

TEST(LedgerTrafficDiff, ShardAblationPairAttributesTheDropToShardHits) {
  // Images large enough that the 224x224 post-crop payload is smaller than
  // their raw blob: the only samples for which offloading saves traffic.
  ThreadedFixture f(12, 6e5, 8e5);
  // Run A: no offloading, no shard — every byte is a raw demand fetch.
  TrafficLedger ledger_a;
  const Bytes traffic_a =
      run_ledgered_epoch(f, core::OffloadPlan(f.catalog.size()), nullptr, ledger_a);

  // Run B: offloaded prefixes served from a materialized shard (stage 1,
  // the deterministic prefix — the pack contract forbids crossing the random
  // crop). The server finishes op 2 live and ships the post-crop image,
  // which is smaller than these samples' raw blobs.
  const auto plan = f.mixed_plan();
  const auto mat = f.materialize_offloaded(plan, /*stage=*/1);
  const auto shard_path = std::filesystem::temp_directory_path() /
                          ("sophon_ledger_diff_" + std::to_string(::getpid()) + ".spshrd");
  ASSERT_TRUE(
      shard::pack_catalog(f.catalog, 42, f.profile.quality, f.pipe, f.cm, mat, shard_path)
          .has_value());
  const auto reader = shard::ShardReader::open(shard_path);
  ASSERT_TRUE(reader.has_value());
  TrafficLedger ledger_b;
  const Bytes traffic_b = run_ledgered_epoch(f, plan, &*reader, ledger_b);
  std::filesystem::remove(shard_path);

  ASSERT_LT(traffic_b.count(), traffic_a.count()) << "offloading must save traffic";

  const LedgerDiff diff = diff_ledgers(ledger_a.export_state(), ledger_b.export_state());
  EXPECT_EQ(diff.total_delta(), traffic_b.count() - traffic_a.count());
  std::int64_t demand_delta = 0;
  std::int64_t shard_hit_delta = 0;
  for (const LedgerDiffRow& row : diff.rows) {
    if (row.cause == TrafficCause::kDemand) demand_delta = row.delta();
    if (row.cause == TrafficCause::kShardHit) shard_hit_delta = row.delta();
  }
  // The diff must tell the ablation's story: demand bytes fell because the
  // offloaded prefixes now arrive as (smaller) shard-hit payloads.
  EXPECT_LT(demand_delta, 0);
  EXPECT_GT(shard_hit_delta, 0);
  EXPECT_EQ(ledger_a.export_state().cause_bytes[kShardHitIdx], 0);
  EXPECT_NE(render_traffic_diff(diff).find("shard-hit"), std::string::npos);
}

}  // namespace
}  // namespace sophon::obs
