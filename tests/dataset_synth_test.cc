#include "dataset/synth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "codec/sjpg.h"
#include "dataset/synth_detail.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/rng.h"

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

// The row kernels stay far below the renderer's fallback margin over their
// whole domain, which is wider than the renderer's arguments (|x| < ~320).
TEST(SynthKernels, SinMatchesLibmOverItsDomain) {
  constexpr int kPoints = 1 << 21;
  double worst = 0.0;
  double worst_x = 0.0;
  for (int i = 0; i <= kPoints; ++i) {
    const double x = -detail::kSinDomain + 2.0 * detail::kSinDomain * i / kPoints;
    const double err = std::abs(detail::sin_kernel(x) - std::sin(x));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 1e-11) << "at x = " << worst_x;
}

TEST(SynthKernels, ExpMatchesLibmOverItsDomain) {
  constexpr int kPoints = 1 << 21;
  double worst = 0.0;
  double worst_x = 0.0;
  for (int i = 0; i <= kPoints; ++i) {
    const double x = detail::kExpDomainMin - detail::kExpDomainMin * i / kPoints;
    const double exact = std::exp(x);
    const double err = std::abs(detail::exp_kernel(x) - exact) / exact;
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 1e-13) << "at x = " << worst_x;
}

TEST(SynthKernels, RejectArgumentsOutsideTheirDomain) {
  EXPECT_THROW((void)detail::sin_kernel(detail::kSinDomain * 1.001), ContractViolation);
  EXPECT_THROW((void)detail::sin_kernel(-detail::kSinDomain * 1.001), ContractViolation);
  EXPECT_THROW((void)detail::sin_kernel(std::nan("")), ContractViolation);
  EXPECT_THROW((void)detail::exp_kernel(-709.0), ContractViolation);
  EXPECT_THROW((void)detail::exp_kernel(0.5), ContractViolation);
  EXPECT_THROW((void)detail::exp_kernel(std::nan("")), ContractViolation);
}

// The per-pixel formula the renderer must reproduce, written out as the
// reference: one std::sin per wave and one std::exp per blob at every pixel,
// noise drawn pixel by pixel.
struct ReferenceRender {
  image::Image image;
  std::size_t waves = 0;
  std::size_t blobs = 0;
};

ReferenceRender reference_render(const SampleMeta& meta, std::uint64_t seed) {
  struct Wave {
    double fx;
    double fy;
    double phase;
    double amplitude;
  };
  struct Blob {
    double cx;
    double cy;
    double radius;
    std::array<double, 3> color;
  };
  constexpr double kTwoPi = 6.28318530717958647692;
  const int w = meta.raw.width;
  const int h = meta.raw.height;
  Rng rng(derive_seed(derive_seed(seed, "synth"), meta.id));

  std::array<double, 3> lo{};
  std::array<double, 3> hi{};
  for (int c = 0; c < 3; ++c) {
    lo[static_cast<std::size_t>(c)] = rng.uniform(40.0, 140.0);
    hi[static_cast<std::size_t>(c)] = rng.uniform(90.0, 220.0);
  }
  const double grad_angle = rng.uniform(0.0, kTwoPi);
  const double gx = std::cos(grad_angle);
  const double gy = std::sin(grad_angle);

  const int wave_count = 2 + static_cast<int>(meta.texture * 4.0);
  std::vector<Wave> waves;
  for (int i = 0; i < wave_count; ++i) {
    const double freq_scale = 2.0 + meta.texture * 22.0;
    waves.push_back({rng.uniform(0.5, freq_scale), rng.uniform(0.5, freq_scale),
                     rng.uniform(0.0, kTwoPi), rng.uniform(6.0, 22.0)});
  }
  const int blob_count = static_cast<int>(rng.uniform_int(2, 5));
  std::vector<Blob> blobs;
  for (int i = 0; i < blob_count; ++i) {
    blobs.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.08, 0.35),
                     {rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)}});
  }
  const double noise_amp = 1.5 + 90.0 * meta.texture * meta.texture;

  const auto cols = static_cast<std::size_t>(w);
  std::vector<double> grad_u(cols);
  std::vector<double> wave_u(cols * waves.size());
  std::vector<double> blob_dx2(cols * blobs.size());
  for (std::size_t x = 0; x < cols; ++x) {
    const double u = static_cast<double>(x) / w;
    grad_u[x] = gx * (u - 0.5);
    for (std::size_t i = 0; i < waves.size(); ++i) {
      wave_u[x * waves.size() + i] = waves[i].fx * u * kTwoPi;
    }
    for (std::size_t j = 0; j < blobs.size(); ++j) {
      const double dx = u - blobs[j].cx;
      blob_dx2[x * blobs.size() + j] = dx * dx;
    }
  }
  std::vector<double> two_r2(blobs.size());
  for (std::size_t j = 0; j < blobs.size(); ++j) {
    two_r2[j] = 2.0 * blobs[j].radius * blobs[j].radius;
  }
  std::array<double, 3> span{};
  for (std::size_t c = 0; c < span.size(); ++c) span[c] = hi[c] - lo[c];

  ReferenceRender out{image::Image(w, h, 3), waves.size(), blobs.size()};
  std::uint8_t* pixels = out.image.data().data();
  std::size_t idx = 0;
  std::vector<double> wave_v(waves.size());
  std::vector<double> blob_dy2(blobs.size());
  for (int y = 0; y < h; ++y) {
    const double v = static_cast<double>(y) / h;
    const double grad_v = gy * (v - 0.5);
    for (std::size_t i = 0; i < waves.size(); ++i) wave_v[i] = waves[i].fy * v * kTwoPi;
    for (std::size_t j = 0; j < blobs.size(); ++j) {
      const double dy = v - blobs[j].cy;
      blob_dy2[j] = dy * dy;
    }
    for (std::size_t x = 0; x < cols; ++x) {
      const double t = std::clamp(0.5 + 0.5 * (grad_u[x] + grad_v) * 2.0, 0.0, 1.0);

      double structure = 0.0;
      const double* wu = wave_u.data() + x * waves.size();
      for (std::size_t i = 0; i < waves.size(); ++i) {
        structure += waves[i].amplitude * std::sin(wu[i] + wave_v[i] + waves[i].phase);
      }
      std::array<double, 3> blob_delta{};
      const double* dx2 = blob_dx2.data() + x * blobs.size();
      for (std::size_t j = 0; j < blobs.size(); ++j) {
        const double falloff = std::exp(-(dx2[j] + blob_dy2[j]) / two_r2[j]);
        for (std::size_t c = 0; c < blob_delta.size(); ++c) {
          blob_delta[c] += blobs[j].color[c] * falloff;
        }
      }

      for (std::size_t c = 0; c < 3; ++c) {
        const double base = lo[c] + span[c] * t;
        const double noise = noise_amp * (rng.uniform() - 0.5);
        const double value = base + structure + blob_delta[c] + noise;
        pixels[idx++] = static_cast<std::uint8_t>(std::clamp(value, 0.0, 255.0));
      }
    }
  }
  return out;
}

// The row kernels and their fallback reproduce the per-pixel formula pixel
// for pixel: rows, columns, odd and even sizes, every wave count (2 to 6)
// and blob count (2 to 5), and a 1000x1000 frame (perfbench's largest).
// Pixels within the margin of an integer do take the fallback, and with a
// margin of 0.5 every pixel does, and still matches.
TEST(Synth, RowKernelsMatchReferenceRender) {
  constexpr std::pair<int, int> kSizes[] = {
      {1, 1},  {1, 2},   {1, 7},   {1, 64},  {2, 1},   {9, 1},   {64, 1},  {2, 2},
      {3, 5},  {5, 3},   {17, 13}, {33, 21}, {64, 48}, {99, 7},  {7, 99},  {127, 65}};
  constexpr double kTextures[] = {0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0};
  std::vector<SampleMeta> metas;
  std::uint64_t id = 100;
  for (const auto& [w, h] : kSizes) {
    for (const double texture : kTextures) metas.push_back(meta_with(w, h, texture, ++id));
  }
  metas.push_back(meta_with(1000, 1000, 0.5, ++id));

  std::set<std::size_t> wave_counts;
  std::set<std::size_t> blob_counts;
  std::size_t exact_pixels = 0;
  for (const auto& meta : metas) {
    const std::uint64_t seed = meta.id * 7;
    const auto ref = reference_render(meta, seed);
    wave_counts.insert(ref.waves);
    blob_counts.insert(ref.blobs);
    SCOPED_TRACE(testing::Message() << meta.raw.width << "x" << meta.raw.height << " texture "
                                    << meta.texture << " id " << meta.id);
    EXPECT_TRUE(generate_synthetic_image(meta, seed) == ref.image);
    const auto rendered = detail::render_with_margin(meta, seed, detail::kFallbackMargin);
    EXPECT_TRUE(rendered.image == ref.image);
    exact_pixels += rendered.exact_pixels;
    const auto all_exact = detail::render_with_margin(meta, seed, 0.5);
    EXPECT_TRUE(all_exact.image == ref.image);
    EXPECT_EQ(all_exact.exact_pixels, static_cast<std::size_t>(meta.raw.width) * meta.raw.height);
  }
  EXPECT_EQ(wave_counts, (std::set<std::size_t>{2, 3, 4, 5, 6}));
  EXPECT_EQ(blob_counts, (std::set<std::size_t>{2, 3, 4, 5}));
  EXPECT_GT(exact_pixels, 0u);
  RecordProperty("exact_pixels", static_cast<int>(exact_pixels));
}

}  // namespace
}  // namespace sophon::dataset
