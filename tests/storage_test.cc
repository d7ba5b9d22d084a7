#include "storage/dataset_store.h"
#include "storage/server.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dataset/synth.h"
#include "net/wire.h"
#include "util/check.h"

namespace sophon::storage {
namespace {

struct Fixture {
  dataset::DatasetProfile profile = [] {
    auto p = dataset::openimages_profile(20);
    // Keep the materialised images small so tests stay fast.
    p.min_pixels = 5e4;
    p.max_pixels = 1.5e5;
    return p;
  }();
  dataset::Catalog catalog = dataset::Catalog::generate(profile, 42);
  pipeline::Pipeline pipeline = pipeline::Pipeline::standard();
  pipeline::CostModel cost_model;
  DatasetStore store{catalog, 42, 85};
  StorageServer server{store, pipeline, cost_model, {.seed = 42}};
};

TEST(DatasetStore, LazyMaterialisation) {
  Fixture f;
  EXPECT_EQ(f.store.materialized_count(), 0u);
  const auto* blob = f.store.get(3);
  ASSERT_NE(blob, nullptr);
  EXPECT_FALSE(blob->empty());
  EXPECT_EQ(f.store.materialized_count(), 1u);
  EXPECT_EQ(f.store.resident_bytes().count(), static_cast<std::int64_t>(blob->size()));
  // Second access returns the cached blob (same address).
  EXPECT_EQ(f.store.get(3), blob);
  EXPECT_EQ(f.store.materialized_count(), 1u);
}

TEST(DatasetStore, UnknownIdReturnsNull) {
  Fixture f;
  EXPECT_EQ(f.store.get(999), nullptr);
}

TEST(DatasetStore, ExplicitPut) {
  Fixture f;
  dataset::SampleMeta meta;
  meta.id = 999;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), 64, 64, 3);
  meta.texture = 0.2;
  auto blob = dataset::materialize_encoded(meta, 1, 80);
  const auto size = blob.size();
  f.store.put(999, std::move(blob));
  ASSERT_NE(f.store.get(999), nullptr);
  EXPECT_EQ(f.store.resident_bytes().count(), static_cast<std::int64_t>(size));
  // Replacement keeps accounting right.
  f.store.put(999, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(f.store.resident_bytes().count(), 10);
}

TEST(StorageServer, RawFetchReturnsBlobVerbatim) {
  Fixture f;
  net::FetchRequest req;
  req.sample_id = 2;
  const auto resp = f.server.fetch(req);
  EXPECT_EQ(resp.sample_id, 2u);
  EXPECT_EQ(resp.stage, 0);
  const auto payload = net::deserialize_sample(resp.payload);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(std::get<pipeline::EncodedBlob>(*payload).bytes, *f.store.get(2));
  EXPECT_DOUBLE_EQ(f.server.modeled_cpu_time().value(), 0.0);
  EXPECT_EQ(f.server.offloaded_requests(), 0u);
}

TEST(StorageServer, OffloadedFetchReturnsCroppedImage) {
  Fixture f;
  net::FetchRequest req;
  req.sample_id = 1;
  req.epoch = 0;
  req.directive.prefix_len = 2;
  const auto resp = f.server.fetch(req);
  EXPECT_EQ(resp.stage, 2);
  const auto payload = net::deserialize_sample(resp.payload);
  ASSERT_TRUE(payload.has_value());
  const auto& img = std::get<image::Image>(*payload);
  EXPECT_EQ(img.width(), 224);
  EXPECT_EQ(img.height(), 224);
  EXPECT_GT(f.server.modeled_cpu_time().value(), 0.0);
  EXPECT_EQ(f.server.offloaded_requests(), 1u);
}

TEST(StorageServer, OffloadEquivalence) {
  // The core correctness property of near-storage offloading: for any cut
  // point, finishing the suffix locally yields the exact tensor a fully
  // local run would produce.
  Fixture f;
  const std::uint64_t sample_id = 4;
  const std::uint64_t epoch = 2;
  const auto stream = augmentation_seed(42, epoch, sample_id);

  // Fully local reference.
  net::FetchRequest raw_req;
  raw_req.sample_id = sample_id;
  raw_req.epoch = epoch;
  const auto raw_resp = f.server.fetch(raw_req);
  const auto raw_payload = net::deserialize_sample(raw_resp.payload);
  ASSERT_TRUE(raw_payload.has_value());
  const auto reference = f.pipeline.run_seeded(*raw_payload, 0, 5, stream);

  for (std::uint8_t cut = 1; cut <= 5; ++cut) {
    net::FetchRequest req;
    req.sample_id = sample_id;
    req.epoch = epoch;
    req.directive.prefix_len = cut;
    const auto resp = f.server.fetch(req);
    const auto payload = net::deserialize_sample(resp.payload);
    ASSERT_TRUE(payload.has_value());
    const auto finished = f.pipeline.run_seeded(*payload, cut, 5, stream);
    EXPECT_EQ(std::get<image::Tensor>(finished), std::get<image::Tensor>(reference))
        << "cut at " << static_cast<int>(cut);
  }
}

TEST(StorageServer, EpochsGetDifferentAugmentations) {
  Fixture f;
  net::FetchRequest req;
  req.sample_id = 0;
  req.directive.prefix_len = 2;
  req.epoch = 0;
  const auto a = f.server.fetch(req);
  req.epoch = 1;
  const auto b = f.server.fetch(req);
  EXPECT_NE(a.payload, b.payload);  // different random crops
  req.epoch = 0;
  const auto c = f.server.fetch(req);
  EXPECT_EQ(a.payload, c.payload);  // same epoch → same crop
}

// Distinct tensors one 320x240 sample yields over `epochs` epochs: online,
// with each epoch's augmentation streams, or from a stage-2 artifact frozen
// at epoch 0's streams (preprocess-once reuse, paper §3.3).
std::size_t distinct_variants(std::uint64_t sample_id, std::size_t epochs, bool frozen) {
  dataset::SampleMeta meta;
  meta.id = sample_id;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), 320, 240, 3);
  meta.texture = 0.4;
  const pipeline::SampleData raw =
      pipeline::EncodedBlob{dataset::materialize_encoded(meta, 9, 70)};
  const auto pipe = pipeline::Pipeline::standard();
  const auto frozen_seed = augmentation_seed(42, 0, sample_id);
  const std::size_t stage = frozen ? 2 : 0;
  const auto artifact = frozen ? pipe.run_seeded(raw, 0, stage, frozen_seed) : raw;
  std::vector<std::vector<std::uint8_t>> seen;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto seed = frozen ? frozen_seed : augmentation_seed(42, epoch, sample_id);
    auto bytes = net::serialize_sample(pipe.run_seeded(artifact, stage, pipe.size(), seed));
    if (std::find(seen.begin(), seen.end(), bytes) == seen.end()) seen.push_back(bytes);
  }
  return seen.size();
}

TEST(VariantCounting, OnlineProducesFreshAugmentationsEveryEpoch) {
  EXPECT_EQ(distinct_variants(5, 12, /*frozen=*/false), 12u);
}

TEST(VariantCounting, ReuseCollapsesToOneVariant) {
  EXPECT_EQ(distinct_variants(6, 12, /*frozen=*/true), 1u);
}

TEST(StorageServer, RejectsUnknownSampleAndBadDirective) {
  Fixture f;
  net::FetchRequest req;
  req.sample_id = 12345;
  EXPECT_THROW((void)f.server.fetch(req), ContractViolation);
  req.sample_id = 0;
  req.directive.prefix_len = 6;
  EXPECT_THROW((void)f.server.fetch(req), ContractViolation);
}

TEST(StorageServer, ReportsTelemetryWhenConfigured) {
  Fixture f;
  MetricsRegistry metrics;
  StorageServer server(f.store, f.pipeline, f.cost_model, {.seed = 42, .metrics = &metrics});
  net::FetchRequest req;
  req.sample_id = 0;
  req.directive.prefix_len = 2;
  (void)server.fetch(req);
  req.sample_id = 1;
  req.directive.prefix_len = 0;
  (void)server.fetch(req);
  EXPECT_EQ(metrics.counter("sophon_server_fetch").value(), 2u);
  EXPECT_EQ(metrics.counter("sophon_server_offload").value(), 1u);
  const auto prefix_cpu = metrics.duration("sophon_server_prefix_cpu").snapshot();
  EXPECT_EQ(prefix_cpu.count(), 1u);
  EXPECT_NEAR(prefix_cpu.sum(), server.modeled_cpu_time().value(), 1e-12);
  EXPECT_NE(metrics.expose().find("sophon_server_fetch_total 2"), std::string::npos);
}

TEST(StorageServer, CountersAndReset) {
  Fixture f;
  net::FetchRequest req;
  req.sample_id = 0;
  req.directive.prefix_len = 2;
  (void)f.server.fetch(req);
  req.directive.prefix_len = 0;
  (void)f.server.fetch(req);
  EXPECT_EQ(f.server.requests_served(), 2u);
  EXPECT_EQ(f.server.offloaded_requests(), 1u);
  f.server.reset_counters();
  EXPECT_EQ(f.server.requests_served(), 0u);
  EXPECT_DOUBLE_EQ(f.server.modeled_cpu_time().value(), 0.0);
}

}  // namespace
}  // namespace sophon::storage
