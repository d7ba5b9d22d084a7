#include "loader/loader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "dataset/sampler.h"
#include "net/wire.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/check.h"

namespace sophon::loader {
namespace {

struct Fixture {
  dataset::DatasetProfile profile = [] {
    auto p = dataset::openimages_profile(24);
    p.min_pixels = 6e4;
    p.max_pixels = 2.5e5;  // small images keep the threads fast
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

  /// Single-threaded reference tensors keyed by sample id.
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

TEST(DataLoader, DeliversEverySampleExactlyOnce) {
  Fixture f;
  const auto plan = f.mixed_plan();
  DataLoader loader(f.server, f.pipe, plan, f.catalog.size(),
                    {.num_workers = 4, .queue_capacity = 8, .seed = 42, .epoch = 0});
  loader.start();
  std::vector<bool> seen(f.catalog.size(), false);
  std::size_t count = 0;
  while (const auto item = loader.next()) {
    ASSERT_LT(item->sample_id, f.catalog.size());
    EXPECT_FALSE(seen[item->sample_id]) << "duplicate " << item->sample_id;
    seen[item->sample_id] = true;
    ++count;
    EXPECT_EQ(item->tensor.width(), 224);
    EXPECT_EQ(item->tensor.channels(), 3);
  }
  EXPECT_EQ(count, f.catalog.size());
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(DataLoader, TensorsBitIdenticalToSingleThreaded) {
  Fixture f;
  const auto plan = f.mixed_plan();
  const auto reference = f.reference(plan, /*epoch=*/3);
  for (const std::size_t workers : {1u, 4u}) {
    DataLoader loader(f.server, f.pipe, plan, f.catalog.size(),
                      {.num_workers = workers, .queue_capacity = 4, .seed = 42, .epoch = 3});
    loader.start();
    std::size_t count = 0;
    while (const auto item = loader.next()) {
      EXPECT_EQ(item->tensor, reference.at(item->sample_id))
          << "sample " << item->sample_id << " with " << workers << " workers";
      ++count;
    }
    EXPECT_EQ(count, f.catalog.size());
  }
}

TEST(DataLoader, TrafficMatchesResponseSizes) {
  Fixture f;
  const core::OffloadPlan no_off(f.catalog.size());
  DataLoader loader(f.server, f.pipe, no_off, f.catalog.size(),
                    {.num_workers = 3, .queue_capacity = 4, .seed = 42, .epoch = 0});
  loader.start();
  Bytes sum;
  while (const auto item = loader.next()) sum += item->wire_bytes;
  EXPECT_EQ(loader.traffic(), sum);
  // Raw fetches: traffic equals the framed sizes of the *materialised*
  // blobs (the parametric catalog only approximates them).
  Bytes expected;
  for (std::size_t i = 0; i < f.catalog.size(); ++i) {
    expected += Bytes(static_cast<std::int64_t>(f.store.get(i)->size()) +
                      net::kFrameOverheadBytes);
  }
  EXPECT_EQ(sum, expected);
}

TEST(DataLoader, PositionsCoverEpochOrder) {
  Fixture f;
  const core::OffloadPlan no_off(f.catalog.size());
  DataLoader loader(f.server, f.pipe, no_off, f.catalog.size(),
                    {.num_workers = 2, .queue_capacity = 4, .seed = 42, .epoch = 1});
  loader.start();
  const dataset::EpochOrder order(f.catalog.size(), 42, 1);
  while (const auto item = loader.next()) {
    EXPECT_EQ(order.at(item->position), item->sample_id);
  }
}

TEST(DataLoader, TinyQueueDoesNotDeadlock) {
  Fixture f;
  const auto plan = f.mixed_plan();
  DataLoader loader(f.server, f.pipe, plan, f.catalog.size(),
                    {.num_workers = 6, .queue_capacity = 1, .seed = 42, .epoch = 0});
  loader.start();
  std::size_t count = 0;
  while (loader.next()) ++count;
  EXPECT_EQ(count, f.catalog.size());
}

TEST(DataLoader, EarlyDestructionJoinsCleanly) {
  Fixture f;
  const auto plan = f.mixed_plan();
  {
    DataLoader loader(f.server, f.pipe, plan, f.catalog.size(),
                      {.num_workers = 4, .queue_capacity = 2, .seed = 42, .epoch = 0});
    loader.start();
    (void)loader.next();  // consume one item, then abandon the epoch
  }                        // destructor must not hang
  SUCCEED();
}

TEST(DataLoader, RejectsBadConfiguration) {
  Fixture f;
  const core::OffloadPlan plan(f.catalog.size());
  EXPECT_THROW(DataLoader(f.server, f.pipe, plan, 0, {}), ContractViolation);
  EXPECT_THROW(DataLoader(f.server, f.pipe, plan, f.catalog.size(),
                          {.num_workers = 0, .queue_capacity = 2, .seed = 0, .epoch = 0}),
               ContractViolation);
  const core::OffloadPlan wrong(5);
  EXPECT_THROW(DataLoader(f.server, f.pipe, wrong, f.catalog.size(), {}), ContractViolation);
  DataLoader loader(f.server, f.pipe, plan, f.catalog.size(), {});
  EXPECT_THROW((void)loader.next(), ContractViolation);  // start() not called
}

}  // namespace
}  // namespace sophon::loader
