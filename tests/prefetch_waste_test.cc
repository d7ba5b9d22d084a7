// Prefetch-waste attribution: every staged byte the consumer never claims —
// evicted before a claim or invalidated by a replan — must be reclassified
// to prefetch-wasted in the traffic ledger (the partition stays exact), and
// none of it may ever change what a sample decodes to: re-fetched tensors
// stay bit-identical.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "obs/ledger.h"
#include "prefetch/scheduler.h"
#include "prefetch/staging_buffer.h"
#include "storage/dataset_store.h"
#include "storage/server.h"

namespace sophon::prefetch {
namespace {

PrefetchOptions depth_options(std::size_t depth) {
  PrefetchOptions options;
  options.depth = depth;
  options.deprioritize_below = Bytes(0);
  options.deprioritize_offloaded = false;
  return options;
}

net::FetchResponse response_of(std::uint64_t id, std::size_t bytes, std::uint8_t stage = 2) {
  net::FetchResponse response;
  response.sample_id = id;
  response.stage = stage;
  response.payload.resize(bytes, 0xAB);
  return response;
}

TEST(PrefetchWaste, EvictBeforeClaimReclassifiesStagedBytes) {
  obs::TrafficLedger ledger;
  StagingBuffer buffer(depth_options(8), nullptr, &ledger);
  for (std::size_t pos = 0; pos < 4; ++pos) {
    ASSERT_EQ(buffer.reserve(pos, Bytes(1000), /*wait=*/false), StagingBuffer::Reserve::kOk);
    buffer.commit(pos, response_of(pos, 1000 * (pos + 1)));
  }
  // Committed bytes are booked as prefetch at their pipeline stage.
  EXPECT_EQ(ledger.total(obs::TrafficCause::kPrefetch).count(), 1000 + 2000 + 3000 + 4000);

  const auto claimed = buffer.claim(0);
  ASSERT_TRUE(claimed.has_value());

  const Bytes evicted =
      buffer.evict_unclaimed_if([](std::size_t, const net::FetchResponse&) { return true; });
  EXPECT_EQ(evicted.count(), 2000 + 3000 + 4000);
  // The claimed slot's bytes stay prefetch; the evicted ones become waste.
  EXPECT_EQ(ledger.total(obs::TrafficCause::kPrefetch).count(), 1000);
  EXPECT_EQ(ledger.total(obs::TrafficCause::kPrefetchWasted).count(), evicted.count());
  EXPECT_EQ(ledger.total(obs::TrafficCause::kPrefetchWasted, 2).count(), evicted.count());
  // The total never changes: reclassification moves bytes, it does not mint
  // or destroy them.
  EXPECT_EQ(ledger.total().count(), 10000);
  // Evicted positions fall through to the demand path.
  EXPECT_FALSE(buffer.claim(2).has_value());
}

TEST(PrefetchWaste, ReplanInvalidationWastesOnlyStageMismatchedSlots) {
  obs::TrafficLedger ledger;
  StagingBuffer buffer(depth_options(8), nullptr, &ledger);
  // Even positions staged at stage 2, odd ones at stage 0 — a replan to
  // prefix 0 invalidates exactly the stage-2 slots.
  for (std::size_t pos = 0; pos < 6; ++pos) {
    ASSERT_EQ(buffer.reserve(pos, Bytes(500), /*wait=*/false), StagingBuffer::Reserve::kOk);
    buffer.commit(pos, response_of(pos, 500, pos % 2 == 0 ? 2 : 0));
  }
  const Bytes evicted = buffer.evict_unclaimed_if(
      [](std::size_t, const net::FetchResponse& response) { return response.stage != 0; });
  EXPECT_EQ(evicted.count(), 3 * 500);
  EXPECT_EQ(ledger.total(obs::TrafficCause::kPrefetchWasted).count(), 3 * 500);
  EXPECT_EQ(ledger.total(obs::TrafficCause::kPrefetch).count(), 3 * 500);

  // Survivors are still claimable and arrive byte-identical to what the
  // scheduler staged.
  const auto kept = buffer.claim(1);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->response.payload, response_of(1, 500, 0).payload);
  EXPECT_FALSE(buffer.claim(2).has_value());
}

TEST(PrefetchWaste, MidEpochReplanKeepsTensorsBitIdenticalAndTheLedgerExact) {
  auto profile = dataset::openimages_profile(24);
  profile.min_pixels = 6e4;
  profile.max_pixels = 2.5e5;
  const auto catalog = dataset::Catalog::generate(profile, 42);
  const auto pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  storage::DatasetStore store{catalog, 42, profile.quality};
  storage::StorageServer server{store, pipe, cm, {.seed = 42}};
  net::MeteringStorageService meter(server);

  core::OffloadPlan deep(catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) deep.set(i, 2);
  const core::OffloadPlan raw(catalog.size());  // the replan target: prefix 0

  // Single-threaded fault-free reference tensors.
  std::map<std::uint64_t, image::Tensor> reference;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    net::FetchRequest req;
    req.sample_id = i;
    req.epoch = 0;
    req.directive.prefix_len = deep.prefix(i);
    const auto resp = server.fetch(req);
    auto payload = net::deserialize_sample(resp.payload);
    ASSERT_TRUE(payload.has_value());
    auto tensor = pipe.run_seeded(std::move(*payload), resp.stage, pipe.size(),
                                  storage::augmentation_seed(42, 0, i));
    reference.emplace(i, std::get<image::Tensor>(std::move(tensor)));
  }

  obs::TrafficLedger ledger;
  std::vector<std::uint32_t> order(catalog.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
  PrefetchScheduler::Config config;
  config.options = depth_options(8);
  config.epoch = 0;
  config.ledger = &ledger;
  PrefetchScheduler scheduler(meter, deep, order, config);
  scheduler.start();

  // Consume position 0, then wait until the scheduler has staged at least
  // one more response beyond what we claimed — the replan must find
  // something to invalidate.
  std::int64_t claimed_prefetch_bytes = 0;
  const auto first = scheduler.claim(0);
  if (first.has_value()) {
    claimed_prefetch_bytes += static_cast<std::int64_t>(first->response.payload.size());
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ledger.total(obs::TrafficCause::kPrefetch).count() <= claimed_prefetch_bytes &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(ledger.total(obs::TrafficCause::kPrefetch).count(), claimed_prefetch_bytes)
      << "scheduler staged nothing within the deadline";

  // Replan to prefix 0: every staged stage-2 response is now mismatched.
  const Bytes evicted = scheduler.invalidate(raw);
  EXPECT_GT(evicted.count(), 0);
  EXPECT_EQ(ledger.total(obs::TrafficCause::kPrefetchWasted).count(), evicted.count());

  // Drain the epoch the way a loader worker would: claim, else demand-fetch
  // under the plan the scheduler was built with — and check bit-identity of
  // every delivered tensor against the fault-free reference.
  const auto tensor_of = [&](const net::FetchResponse& resp, std::size_t i) {
    auto payload = net::deserialize_sample(resp.payload);
    EXPECT_TRUE(payload.has_value()) << "sample " << i;
    auto tensor = pipe.run_seeded(std::move(*payload), resp.stage, pipe.size(),
                                  storage::augmentation_seed(42, 0, i));
    return std::get<image::Tensor>(std::move(tensor));
  };
  if (first.has_value()) {
    EXPECT_EQ(tensor_of(first->response, 0), reference.at(0));
  }
  for (std::size_t pos = first.has_value() ? 1 : 0; pos < catalog.size(); ++pos) {
    const std::uint64_t id = order[pos];
    auto staged = scheduler.claim(pos);
    net::FetchResponse resp;
    if (staged.has_value()) {
      resp = std::move(staged->response);
    } else {
      net::FetchRequest req;
      req.sample_id = id;
      req.epoch = 0;
      req.position = pos;
      req.directive.prefix_len = deep.prefix(id);
      resp = meter.fetch(req);
      // Mimic the loader's single recording point for demand-path bytes.
      ledger.record(id, resp.stage, obs::TrafficCause::kDemand, resp.wire_bytes());
    }
    EXPECT_EQ(tensor_of(resp, id), reference.at(id)) << "sample " << id;
  }

  // With the epoch drained nothing is in flight: the partition must close
  // byte-exactly against the wire meter, wasted bytes included.
  const auto rec = ledger.reconcile(meter.traffic());
  EXPECT_TRUE(rec.exact()) << "unattributed " << rec.unattributed_bytes << " B";
  EXPECT_GT(ledger.total(obs::TrafficCause::kPrefetchWasted).count(), 0);
  scheduler.shutdown();
  EXPECT_TRUE(ledger.reconcile(meter.traffic()).exact());
}

}  // namespace
}  // namespace sophon::prefetch
