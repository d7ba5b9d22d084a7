#include "dataset/catalog.h"

#include <gtest/gtest.h>

#include "codec/sjpg.h"
#include "dataset/synth.h"
#include "util/check.h"

namespace sophon::dataset {
namespace {

TEST(Catalog, GenerateHasRequestedSizeAndIds) {
  const auto catalog = Catalog::generate(openimages_profile(500), 42);
  ASSERT_EQ(catalog.size(), 500u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog.sample(i).id, i);
  }
}

TEST(Catalog, TotalsAreConsistent) {
  const auto catalog = Catalog::generate(imagenet_profile(300), 1);
  Bytes total;
  for (const auto& s : catalog.samples()) total += s.raw.bytes;
  EXPECT_EQ(catalog.total_encoded(), total);
  EXPECT_EQ(catalog.mean_encoded().count(), total.count() / 300);
}

TEST(Catalog, GenerateIsDeterministic) {
  const auto a = Catalog::generate(openimages_profile(100), 9);
  const auto b = Catalog::generate(openimages_profile(100), 9);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.sample(i).raw, b.sample(i).raw);
  }
}

TEST(Catalog, GenerateRejectsInvertedPixelBounds) {
  auto profile = openimages_profile(10);
  profile.max_pixels = profile.min_pixels - 1.0;
  EXPECT_THROW((void)Catalog::generate(profile, 1), ContractViolation);
  profile.max_pixels = profile.min_pixels;
  EXPECT_EQ(Catalog::generate(profile, 1).size(), 10u);
}

TEST(Catalog, FractionLargerThan) {
  const auto catalog = Catalog::generate(openimages_profile(1000), 3);
  EXPECT_DOUBLE_EQ(catalog.fraction_larger_than(Bytes(0)), 1.0);
  EXPECT_DOUBLE_EQ(catalog.fraction_larger_than(Bytes::gib(1)), 0.0);
  const auto mid = catalog.mean_encoded();
  const double frac = catalog.fraction_larger_than(mid);
  EXPECT_GT(frac, 0.1);
  EXPECT_LT(frac, 0.9);
}

TEST(Catalog, FromBlobsRecoversDimensionsAndSizes) {
  std::vector<std::vector<std::uint8_t>> blobs;
  for (int i = 0; i < 5; ++i) {
    SampleMeta meta;
    meta.id = static_cast<std::uint64_t>(i);
    meta.raw = pipeline::SampleShape::encoded(Bytes(1), 64 + i * 16, 48 + i * 8, 3);
    meta.texture = 0.4;
    blobs.push_back(materialize_encoded(meta, 11, 80));
  }
  const auto catalog = Catalog::from_blobs(blobs);
  ASSERT_EQ(catalog.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(catalog.sample(i).raw.width, 64 + static_cast<int>(i) * 16);
    EXPECT_EQ(catalog.sample(i).raw.height, 48 + static_cast<int>(i) * 8);
    EXPECT_EQ(catalog.sample(i).raw.bytes.count(),
              static_cast<std::int64_t>(blobs[i].size()));
  }
}

TEST(Catalog, FromBlobsRejectsGarbage) {
  std::vector<std::vector<std::uint8_t>> blobs{{1, 2, 3}};
  EXPECT_THROW((void)Catalog::from_blobs(blobs), ContractViolation);
}

TEST(Catalog, SampleIndexBoundsChecked) {
  const auto catalog = Catalog::generate(openimages_profile(10), 1);
  EXPECT_THROW((void)catalog.sample(10), ContractViolation);
}

TEST(Catalog, EmptyCatalogBehaviour) {
  const Catalog catalog;
  EXPECT_TRUE(catalog.empty());
  EXPECT_EQ(catalog.mean_encoded().count(), 0);
  EXPECT_DOUBLE_EQ(catalog.fraction_larger_than(Bytes(1)), 0.0);
}

}  // namespace
}  // namespace sophon::dataset
