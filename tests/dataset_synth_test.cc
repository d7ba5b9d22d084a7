#include "dataset/synth.h"

#include <gtest/gtest.h>

#include <utility>

#include "codec/sjpg.h"
#include "util/crc32.h"

namespace sophon::dataset {
namespace {

SampleMeta meta_with(int w, int h, double texture, std::uint64_t id = 1) {
  SampleMeta meta;
  meta.id = id;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), w, h, 3);
  meta.texture = texture;
  return meta;
}

TEST(Synth, DimensionsMatchMetadata) {
  const auto img = generate_synthetic_image(meta_with(320, 180, 0.5), 42);
  EXPECT_EQ(img.width(), 320);
  EXPECT_EQ(img.height(), 180);
  EXPECT_EQ(img.channels(), 3);
}

TEST(Synth, DeterministicPerSeedAndId) {
  const auto a = generate_synthetic_image(meta_with(64, 64, 0.5, 9), 42);
  const auto b = generate_synthetic_image(meta_with(64, 64, 0.5, 9), 42);
  EXPECT_EQ(a, b);
  const auto other_seed = generate_synthetic_image(meta_with(64, 64, 0.5, 9), 43);
  EXPECT_NE(a, other_seed);
  const auto other_id = generate_synthetic_image(meta_with(64, 64, 0.5, 10), 42);
  EXPECT_NE(a, other_id);
}

TEST(Synth, NotDegenerate) {
  // The generator must produce actual structure, not a constant field.
  const auto img = generate_synthetic_image(meta_with(128, 128, 0.3), 1);
  std::uint8_t lo = 255;
  std::uint8_t hi = 0;
  for (const auto px : img.data()) {
    lo = std::min(lo, px);
    hi = std::max(hi, px);
  }
  EXPECT_GT(static_cast<int>(hi) - lo, 40);
}

TEST(Synth, CompressedSizeGrowsWithTexture) {
  // The property the whole materialised path relies on: texture controls
  // compressibility through the real codec.
  std::size_t prev = 0;
  for (const double texture : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto blob = materialize_encoded(meta_with(256, 192, texture), 42, 80);
    EXPECT_GT(blob.size(), prev) << "texture " << texture;
    prev = blob.size();
  }
}

TEST(Synth, MaterializeYieldsValidSjpg) {
  const auto blob = materialize_encoded(meta_with(120, 90, 0.6), 5, 85);
  const auto hdr = codec::sjpg_peek(blob);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->width, 120);
  EXPECT_EQ(hdr->height, 90);
  EXPECT_EQ(hdr->quality, 85);
  EXPECT_TRUE(codec::sjpg_decode(blob).has_value());
}

TEST(Synth, RealBppInsideProfileRange) {
  // Cross-validation of the parametric size model against the real codec:
  // materialised blobs must land in the bpp band the profiles assume.
  const auto profile = openimages_profile(1);
  for (const double texture : {0.1, 0.5, 0.9}) {
    const auto blob = materialize_encoded(meta_with(512, 384, texture), 7, profile.quality);
    const double bpp = static_cast<double>(blob.size()) * 8.0 / (512.0 * 384.0);
    EXPECT_GE(bpp, profile.min_bpp * 0.5) << texture;
    EXPECT_LE(bpp, profile.max_bpp * 1.5) << texture;
  }
}

// Materialisation is render then encode, byte for byte, however it is
// carried out: odd and even edges (single pixels, rows, columns and a
// ~0.5 MP frame), every wave count the textures draw, and a coarse, a
// middle and a near-lossless quantiser.
TEST(Synth, MaterializedEqualsEncodedRender) {
  constexpr std::pair<int, int> kSizes[] = {{1, 1},   {1, 37},  {53, 1},  {2, 2},
                                            {3, 3},   {33, 21}, {48, 32}, {801, 601}};
  std::uint64_t seed = 0;
  for (const auto& [w, h] : kSizes) {
    for (const double texture : {0.0, 0.3, 0.6, 1.0}) {
      const auto meta = meta_with(w, h, texture, ++seed);
      const auto img = generate_synthetic_image(meta, seed);
      for (const int quality : {55, 85, 95}) {
        EXPECT_EQ(materialize_encoded(meta, seed, quality), codec::sjpg_encode(img, quality))
            << w << "x" << h << " texture " << texture << " quality " << quality;
      }
    }
  }
}

// Golden pin: crc32 of the rendered pixels. Each case draws its own wave
// count (2 + 4 x texture: 2, 3, 4 and 6) and blob count (2 to 5, from the
// seed), and the sizes include single pixels, rows and columns, so any
// change to the rendering arithmetic or the order of the RNG draws moves it.
TEST(Synth, PixelsArePinned) {
  struct Case {
    int w;
    int h;
    double texture;
    std::uint64_t seed;  // also the sample id
    std::uint32_t crc;
  };
  constexpr Case kCases[] = {
      {1, 1, 0.0, 5, 0x4a8cebec},    // 2 waves, 2 blobs
      {48, 32, 0.0, 7, 0x7de6ca8b},  // 2 waves, 5 blobs
      {1, 37, 0.3, 1, 0x0176dc4f},   // 3 waves, 4 blobs
      {33, 21, 0.3, 2, 0x9656167f},  // 3 waves, 3 blobs
      {53, 1, 0.6, 1, 0x6e1db354},   // 4 waves, 5 blobs
      {40, 30, 0.6, 2, 0xd2e585a7},  // 4 waves, 2 blobs
      {64, 48, 1.0, 4, 0xb9a2dd1d},  // 6 waves, 3 blobs
      {7, 5, 1.0, 2, 0xd8694cae},    // 6 waves, 4 blobs
  };
  for (const auto& c : kCases) {
    const auto img = generate_synthetic_image(meta_with(c.w, c.h, c.texture, c.seed), c.seed);
    EXPECT_EQ(crc32(img.data()), c.crc)
        << c.w << "x" << c.h << " texture " << c.texture << " seed " << c.seed << ": got 0x"
        << std::hex << crc32(img.data());
  }
}

}  // namespace
}  // namespace sophon::dataset
