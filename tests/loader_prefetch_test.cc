#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "loader/loader.h"
#include "net/wire.h"
#include "obs/ledger.h"
#include "prefetch/metrics.h"
#include "storage/dataset_store.h"
#include "storage/server.h"

namespace sophon::loader {
namespace {

struct Fixture {
  dataset::DatasetProfile profile = [] {
    auto p = dataset::openimages_profile(24);
    p.min_pixels = 6e4;
    p.max_pixels = 2.5e5;
    return p;
  }();
  dataset::Catalog catalog = dataset::Catalog::generate(profile, 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  storage::DatasetStore store{catalog, 42, profile.quality};
  storage::StorageServer server{store, pipe, cm, {.seed = 42}};

  core::OffloadPlan mixed_plan() {
    core::OffloadPlan plan(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      plan.set(i, static_cast<std::uint8_t>(i % 3 == 0 ? 2 : 0));
    }
    return plan;
  }

  std::map<std::uint64_t, image::Tensor> reference(const core::OffloadPlan& plan,
                                                   std::size_t epoch) {
    std::map<std::uint64_t, image::Tensor> out;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      net::FetchRequest req;
      req.sample_id = i;
      req.epoch = epoch;
      req.directive.prefix_len = plan.prefix(i);
      const auto resp = server.fetch(req);
      auto payload = net::deserialize_sample(resp.payload);
      auto tensor = pipe.run_seeded(std::move(*payload), resp.stage, pipe.size(),
                                    storage::augmentation_seed(42, epoch, i));
      out.emplace(i, std::get<image::Tensor>(std::move(tensor)));
    }
    return out;
  }
};

/// Fails the first fetch of every offloaded sample with a transient error:
/// whichever side tries first — prefetcher or worker — eats the failure and
/// the retry (prefetch fallback or degradation ladder) must still deliver.
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

DataLoader::Options with_prefetch(std::size_t workers, std::size_t depth) {
  DataLoader::Options options;
  options.num_workers = workers;
  options.queue_capacity = 8;
  options.seed = 42;
  options.epoch = 5;
  options.prefetch.depth = depth;
  return options;
}

// The determinism satellite: byte-identical tensors across prefetch off,
// depth 4, and depth 64, each at 1 and 4 workers.
TEST(LoaderPrefetch, TensorsBitIdenticalAcrossDepthsAndWorkers) {
  Fixture f;
  const auto plan = f.mixed_plan();
  const auto reference = f.reference(plan, /*epoch=*/5);
  for (const std::size_t depth : {0u, 4u, 64u}) {
    for (const std::size_t workers : {1u, 4u}) {
      DataLoader loader(f.server, f.pipe, plan, f.catalog.size(),
                        with_prefetch(workers, depth));
      loader.start();
      std::size_t count = 0;
      while (const auto item = loader.next()) {
        EXPECT_EQ(item->tensor, reference.at(item->sample_id))
            << "sample " << item->sample_id << " depth " << depth << " workers " << workers;
        ++count;
      }
      EXPECT_EQ(count, f.catalog.size()) << "depth " << depth << " workers " << workers;
    }
  }
}

TEST(LoaderPrefetch, DeliversEverySampleExactlyOnceWithSameTraffic) {
  Fixture f;
  const auto plan = f.mixed_plan();
  Bytes demand_traffic;
  {
    DataLoader loader(f.server, f.pipe, plan, f.catalog.size(), with_prefetch(4, 0));
    loader.start();
    while (loader.next()) {
    }
    demand_traffic = loader.traffic();
    EXPECT_FALSE(loader.prefetch_stats().has_value());
  }
  DataLoader loader(f.server, f.pipe, plan, f.catalog.size(), with_prefetch(4, 8));
  loader.start();
  std::vector<bool> seen(f.catalog.size(), false);
  std::size_t count = 0;
  while (const auto item = loader.next()) {
    EXPECT_FALSE(seen[item->sample_id]);
    seen[item->sample_id] = true;
    ++count;
  }
  EXPECT_EQ(count, f.catalog.size());
  // Prefetching must not move a byte more than demand fetching did.
  EXPECT_EQ(loader.traffic(), demand_traffic);
  const auto stats = loader.prefetch_stats();
  ASSERT_TRUE(stats.has_value());
  // Every sample came from exactly one fetch: staged hits plus worker
  // demand fetches (failed/skipped/consumed positions) cover the epoch.
  EXPECT_EQ(stats->issued, stats->hits + stats->cancelled + stats->failed);
  EXPECT_GT(stats->hits, 0u);
}

TEST(LoaderPrefetch, FailedPrefetchFallsBackSilently) {
  Fixture f;
  FirstAttemptFails flaky(f.server);
  const auto plan = f.mixed_plan();
  const auto reference = f.reference(plan, /*epoch=*/5);
  MetricsRegistry metrics;
  auto options = with_prefetch(2, 16);
  options.metrics = &metrics;
  DataLoader loader(flaky, f.pipe, plan, f.catalog.size(), options);
  loader.start();
  std::size_t count = 0;
  std::size_t offloaded = 0;
  while (const auto item = loader.next()) {
    EXPECT_EQ(item->tensor, reference.at(item->sample_id));
    ++count;
    if (plan.prefix(item->sample_id) > 0) ++offloaded;
  }
  EXPECT_EQ(count, f.catalog.size());
  const auto stats = loader.prefetch_stats();
  ASSERT_TRUE(stats.has_value());
  // Each offloaded sample's one induced failure was eaten exactly once:
  // either by the scheduler (silent fallback) or by a worker (degradation).
  EXPECT_EQ(stats->failed + loader.degraded_samples(), offloaded);
}

TEST(LoaderPrefetch, EarlyDestructionCancelsCleanly) {
  Fixture f;
  const auto plan = f.mixed_plan();
  {
    DataLoader loader(f.server, f.pipe, plan, f.catalog.size(), with_prefetch(4, 16));
    loader.start();
    (void)loader.next();  // abandon mid-epoch with fetches staged/in flight
  }                        // destructor must cancel the scheduler, not hang
  SUCCEED();
}

TEST(LoaderPrefetch, MetricsReportHitsAndDepth) {
  Fixture f;
  const auto plan = f.mixed_plan();
  MetricsRegistry metrics;
  auto options = with_prefetch(2, 8);
  options.metrics = &metrics;
  DataLoader loader(f.server, f.pipe, plan, f.catalog.size(), options);
  loader.start();
  while (loader.next()) {
  }
  const auto stats = loader.prefetch_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(metrics.counter(prefetch::kHits).value(), stats->hits);
  EXPECT_EQ(metrics.counter(prefetch::kIssued).value(), stats->issued);
  EXPECT_EQ(metrics.histogram(prefetch::kLeadSeconds).count(), stats->hits);
}

TEST(LoaderPrefetch, InvalidateWithoutPrefetchIsNoOp) {
  Fixture f;
  const auto plan = f.mixed_plan();
  DataLoader loader(f.server, f.pipe, plan, f.catalog.size(), with_prefetch(2, 0));
  loader.start();
  (void)loader.next();
  EXPECT_EQ(loader.invalidate_prefetched(core::OffloadPlan(f.catalog.size())), Bytes(0));
  while (loader.next()) {
  }
}

// The replan hook mid-epoch: an all-raw plan evicts every staged offloaded
// response. Workers re-fetch those under the loader's own plan, so tensors
// stay bit-identical, and the evicted bytes are booked as prefetch-wasted
// without breaking the ledger's partition of the metered wire bytes.
TEST(LoaderPrefetch, InvalidateMidEpochKeepsTensorsAndLedgerExact) {
  Fixture f;
  const auto plan = f.mixed_plan();
  const auto reference = f.reference(plan, /*epoch=*/5);
  net::MeteringStorageService meter(f.server);
  obs::TrafficLedger ledger;
  auto options = with_prefetch(2, 16);
  options.ledger = &ledger;
  DataLoader loader(meter, f.pipe, plan, f.catalog.size(), options);
  loader.start();
  std::size_t count = 0;
  Bytes evicted;
  while (const auto item = loader.next()) {
    EXPECT_EQ(item->tensor, reference.at(item->sample_id)) << "sample " << item->sample_id;
    if (++count == 4) evicted = loader.invalidate_prefetched(core::OffloadPlan(f.catalog.size()));
  }
  EXPECT_EQ(count, f.catalog.size());
  EXPECT_GE(ledger.total(obs::TrafficCause::kPrefetchWasted), evicted);
  Bytes by_cause;
  for (std::size_t cause = 0; cause < obs::kTrafficCauseCount; ++cause) {
    by_cause += ledger.total(static_cast<obs::TrafficCause>(cause));
  }
  EXPECT_EQ(by_cause, meter.traffic());
  EXPECT_TRUE(ledger.reconcile(meter.traffic()).exact());
}

}  // namespace
}  // namespace sophon::loader
