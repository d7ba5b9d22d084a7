#include "codec/sjpg.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "codec/bitio.h"
#include "codec/huffman.h"
#include "dataset/profile.h"
#include "dataset/synth.h"
#include "image/ops.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace sophon::codec {
namespace {

image::Image random_image(int w, int h, int channels, std::uint64_t seed) {
  image::Image img(w, h, channels);
  Rng rng(seed);
  for (auto& px : img.data()) px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return img;
}

image::Image smooth_image(int w, int h) {
  image::Image img(w, h, 3);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < 3; ++c)
        img.set(x, y, c, static_cast<std::uint8_t>((x * 2 + y + c * 40) % 256));
  return img;
}

double mean_abs_error(const image::Image& a, const image::Image& b) {
  SOPHON_CHECK(a.width() == b.width() && a.height() == b.height());
  double err = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    err += std::abs(static_cast<int>(a.data()[i]) - static_cast<int>(b.data()[i]));
  return err / static_cast<double>(a.data().size());
}

TEST(Sjpg, HeaderPeek) {
  const auto img = smooth_image(37, 21);
  const auto blob = sjpg_encode(img, 75);
  const auto hdr = sjpg_peek(blob);
  ASSERT_TRUE(hdr.has_value());
  EXPECT_EQ(hdr->width, 37);
  EXPECT_EQ(hdr->height, 21);
  EXPECT_EQ(hdr->channels, 3);
  EXPECT_EQ(hdr->quality, 75);
}

TEST(Sjpg, PeekRejectsGarbage) {
  EXPECT_FALSE(sjpg_peek(std::vector<std::uint8_t>{1, 2, 3}).has_value());
  std::vector<std::uint8_t> junk(64, 0xaa);
  EXPECT_FALSE(sjpg_peek(junk).has_value());
}

/// A bare 14-byte header: valid magic and fields, no payload.
std::vector<std::uint8_t> bare_header(int w, int h, int channels) {
  BitWriter out;
  out.put(0x534a5047, 32);  // "SJPG"
  out.put(static_cast<std::uint64_t>(w), 16);
  out.put(static_cast<std::uint64_t>(h), 16);
  out.put(static_cast<std::uint64_t>(channels), 8);
  out.put(60, 8);
  for (int i = 0; i < 4; ++i) out.put(0, 8);  // pad to 14 bytes
  return out.finish();
}

TEST(Sjpg, PeekRejectsDimensionsThePayloadCannotFill) {
  // A symbol takes at least 1 bit and covers at most 1027 pixels, so 14
  // bytes can fill at most 8 * 14 * 1027 = 115024 pixels.
  ASSERT_EQ(bare_header(1, 1, 3).size(), 14u);
  ASSERT_FALSE(sjpg_peek(bare_header(20000, 20000, 3)).has_value());
  // Decode goes through the same check, so it fails before allocating.
  EXPECT_FALSE(sjpg_decode(bare_header(20000, 20000, 3)).has_value());
  EXPECT_FALSE(sjpg_peek(bare_header(65535, 65535, 1)).has_value());
  EXPECT_FALSE(sjpg_peek(bare_header(25, 4601, 1)).has_value());  // 115025 pixels
  EXPECT_TRUE(sjpg_peek(bare_header(16, 7189, 1)).has_value());   // 115024 pixels
}

TEST(Sjpg, PeekAcceptsTheMostCompressibleStream) {
  // A flat mid-grey plane codes as nothing but maximal zero runs.
  const image::Image flat(1024, 1024, 1, std::vector<std::uint8_t>(1024 * 1024, 128));
  const auto blob = sjpg_encode(flat, 95);
  ASSERT_TRUE(sjpg_peek(blob).has_value());
  const auto decoded = sjpg_decode(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, flat);
}

TEST(Sjpg, GrayscaleRoundTripNearLossless) {
  const auto img = random_image(64, 48, 1, 11);
  const auto blob = sjpg_encode(img, 95);  // step 1 → lossless DPCM
  const auto decoded = sjpg_decode(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, img);  // grayscale at step 1 is exactly lossless
}

TEST(Sjpg, ColorRoundTripBoundedError) {
  // Chroma subsampling + colour-space round trip is lossy but bounded.
  const auto img = smooth_image(96, 64);
  const auto blob = sjpg_encode(img, 95);
  const auto decoded = sjpg_decode(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->width(), img.width());
  EXPECT_EQ(decoded->height(), img.height());
  EXPECT_LT(mean_abs_error(img, *decoded), 8.0);
}

TEST(Sjpg, LowerQualityIsSmallerAndWorse) {
  dataset::SampleMeta meta;
  meta.id = 3;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), 256, 192, 3);
  meta.texture = 0.4;
  const auto img = dataset::generate_synthetic_image(meta, 99);

  const auto hi = sjpg_encode(img, 95);
  const auto lo = sjpg_encode(img, 40);
  EXPECT_LT(lo.size(), hi.size());

  const auto hi_dec = sjpg_decode(hi);
  const auto lo_dec = sjpg_decode(lo);
  ASSERT_TRUE(hi_dec.has_value() && lo_dec.has_value());
  EXPECT_LE(mean_abs_error(img, *hi_dec), mean_abs_error(img, *lo_dec));
  // Even at quality 40 the reconstruction must stay recognisable.
  EXPECT_LT(mean_abs_error(img, *lo_dec), 16.0);
}

TEST(Sjpg, SmoothCompressesBetterThanNoise) {
  const auto smooth = smooth_image(128, 128);
  const auto noisy = random_image(128, 128, 3, 12);
  const auto smooth_blob = sjpg_encode(smooth, 80);
  const auto noisy_blob = sjpg_encode(noisy, 80);
  EXPECT_LT(smooth_blob.size() * 2, noisy_blob.size());
}

TEST(Sjpg, AdaptivePredictorsKeepSmoothContentCheap) {
  // Regression floor for the per-row adaptive predictors: smooth synthetic
  // content at quality 70 must stay near 1 bpp (it was ~1.6 bpp with the
  // fixed MED predictor).
  dataset::SampleMeta meta;
  meta.id = 7;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), 512, 384, 3);
  meta.texture = 0.05;
  const auto img = dataset::generate_synthetic_image(meta, 1);
  const auto blob = sjpg_encode(img, 70);
  const double bpp = static_cast<double>(blob.size()) * 8.0 / (512.0 * 384.0);
  EXPECT_LT(bpp, 1.2);
}

TEST(Sjpg, Deterministic) {
  const auto img = smooth_image(50, 40);
  EXPECT_EQ(sjpg_encode(img, 80), sjpg_encode(img, 80));
}

TEST(Sjpg, DecodeRejectsTruncation) {
  const auto img = smooth_image(64, 64);
  auto blob = sjpg_encode(img, 80);
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(sjpg_decode(blob).has_value());
}

TEST(Sjpg, DecodeRejectsBitFlipsGracefully) {
  // Any corruption must yield nullopt or a decoded image — never a crash.
  const auto img = smooth_image(48, 48);
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    auto blob = sjpg_encode(img, 70);
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(6, static_cast<std::int64_t>(blob.size()) - 1));
    blob[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    const auto decoded = sjpg_decode(blob);  // must not throw
    if (decoded.has_value()) {
      EXPECT_EQ(decoded->width(), 48);
      EXPECT_EQ(decoded->height(), 48);
    }
  }
}

TEST(Sjpg, OddDimensionsRoundTrip) {
  for (const auto& [w, h] : {std::pair{65, 33}, {1, 1}, {3, 7}, {127, 1}}) {
    const auto img = random_image(w, h, 3, static_cast<std::uint64_t>(w * 1000 + h));
    const auto blob = sjpg_encode(img, 90);
    const auto decoded = sjpg_decode(blob);
    ASSERT_TRUE(decoded.has_value()) << w << "x" << h;
    EXPECT_EQ(decoded->width(), w);
    EXPECT_EQ(decoded->height(), h);
  }
}

/// A random region of a w x h image; every third one reaches the right
/// and bottom edges, and every fifth is a single pixel.
image::CropRect random_region(Rng& rng, int w, int h, int trial) {
  image::CropRect r;
  r.x = static_cast<int>(rng.uniform_int(0, w - 1));
  r.y = static_cast<int>(rng.uniform_int(0, h - 1));
  r.width = static_cast<int>(rng.uniform_int(1, w - r.x));
  r.height = static_cast<int>(rng.uniform_int(1, h - r.y));
  if (trial % 3 == 0) {
    r.width = w - r.x;
    r.height = h - r.y;
  }
  if (trial % 5 == 0) r.width = r.height = 1;
  return r;
}

TEST(Sjpg, RegionDecodeMatchesCropOfWholeDecode) {
  Rng rng(41);
  for (const auto& [w, h] : {std::pair{1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 5}, {33, 17},
                             {64, 48}, {97, 63}}) {
    for (const int channels : {1, 3}) {
      const auto img = random_image(w, h, channels, static_cast<std::uint64_t>(w * 100 + h));
      for (const int quality : {1, 55, 95}) {
        const auto blob = sjpg_encode(img, quality);
        const auto whole = sjpg_decode(blob);
        ASSERT_TRUE(whole.has_value());
        for (int trial = 0; trial < 12; ++trial) {
          const auto r = random_region(rng, w, h, trial);
          const auto part = sjpg_decode(blob, r);
          ASSERT_TRUE(part.has_value());
          ASSERT_EQ(*part, image::crop(*whole, r))
              << w << "x" << h << "x" << channels << " q" << quality << " region " << r.x
              << "," << r.y << " " << r.width << "x" << r.height;
        }
        EXPECT_EQ(sjpg_decode(blob, image::CropRect{0, 0, w, h}), whole);
      }
    }
  }
}

TEST(Sjpg, RegionDecodeRejectsRegionsOutsideTheImage) {
  const auto blob = sjpg_encode(smooth_image(8, 6), 75);
  EXPECT_THROW((void)sjpg_decode(blob, image::CropRect{4, 0, 5, 2}), ContractViolation);
  EXPECT_THROW((void)sjpg_decode(blob, image::CropRect{0, 5, 2, 2}), ContractViolation);
  EXPECT_THROW((void)sjpg_decode(blob, image::CropRect{-1, 0, 2, 2}), ContractViolation);
  EXPECT_THROW((void)sjpg_decode(blob, image::CropRect{0, 0, 0, 2}), ContractViolation);
}

TEST(Sjpg, QuantStepMonotoneInQuality) {
  int prev = sjpg_quant_step(1);
  for (int q = 2; q <= 100; ++q) {
    const int step = sjpg_quant_step(q);
    EXPECT_LE(step, prev);
    prev = step;
  }
  EXPECT_EQ(sjpg_quant_step(100), 1);
  EXPECT_THROW((void)sjpg_quant_step(0), ContractViolation);
  EXPECT_THROW((void)sjpg_quant_step(101), ContractViolation);
}

TEST(Sjpg, MedPredictMatchesLocoIOnEveryInput) {
  // The LOCO-I median edge detector in its textbook branch form.
  const auto loco_i = [](int a, int b, int c) {
    if (c >= std::max(a, b)) return std::min(a, b);
    if (c <= std::min(a, b)) return std::max(a, b);
    return a + b - c;
  };
  std::int64_t mismatches = 0;
  for (int a = 0; a < 256; ++a)
    for (int b = 0; b < 256; ++b)
      for (int c = 0; c < 256; ++c) mismatches += med_predict(a, b, c) != loco_i(a, b, c);
  EXPECT_EQ(mismatches, 0);
}

TEST(Sjpg, EncodeRejectsBadArguments) {
  const auto img = smooth_image(8, 8);
  EXPECT_THROW((void)sjpg_encode(img, 0), ContractViolation);
  EXPECT_THROW((void)sjpg_encode(image::Image{}, 80), ContractViolation);
}

// Golden pins: crc32 of the encoded bytes and of the decoded pixels for a
// fixed set of images, and the accept/reject verdict (plus decoded pixels)
// over a deterministic corpus of corrupt blobs. The values were recorded
// from the bit-at-a-time Huffman walk and per-pixel predictor that the
// table-driven decoder replaced; any change to the bitstream format, the
// reconstruction, or which corrupt streams are accepted moves them.

image::Image synth_image(int w, int h, double texture, std::uint64_t seed) {
  dataset::SampleMeta meta;
  meta.id = seed;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), w, h, 3);
  meta.texture = texture;
  return dataset::generate_synthetic_image(meta, seed);
}

image::Image gray_of(const image::Image& rgb) {
  image::Image gray(rgb.width(), rgb.height(), 1);
  for (int y = 0; y < rgb.height(); ++y)
    for (int x = 0; x < rgb.width(); ++x) gray.set(x, y, 0, rgb.at(x, y, 1));
  return gray;
}

struct GoldenImage {
  const char* name;
  image::Image img;
};

std::vector<GoldenImage> golden_images() {
  return {
      {"synth_rgb_96x64", synth_image(96, 64, 0.3, 1)},
      {"synth_rgb_65x33", synth_image(65, 33, 0.8, 2)},
      {"synth_rgb_161x121", synth_image(161, 121, 0.05, 3)},
      {"noise_rgb_37x21", random_image(37, 21, 3, 4)},
      {"noise_rgb_3x7", random_image(3, 7, 3, 5)},
      {"noise_rgb_1x1", random_image(1, 1, 3, 6)},
      {"synth_gray_63x47", gray_of(synth_image(63, 47, 0.5, 7))},
      {"noise_gray_31x17", random_image(31, 17, 1, 8)},
      {"smooth_gray_127x1", gray_of(smooth_image(127, 1))},
  };
}

constexpr std::array<int, 4> kGoldenQualities{1, 55, 75, 95};

struct GoldenCrc {
  std::uint32_t encoded;
  std::uint32_t decoded;
};

// Indexed [golden_images() entry][kGoldenQualities entry].
constexpr GoldenCrc kGolden[9][4] = {
    // synth_rgb_96x64: q1, q55, q75, q95
    {{0xdb966f38, 0xc65a2766}, {0xf4e9f91f, 0xeb9eeede},
     {0x9dd6adc8, 0xbd80aff4}, {0xaeb82d34, 0x69417ffe}},
    // synth_rgb_65x33: q1, q55, q75, q95
    {{0xc9356452, 0x64f81306}, {0x3e1e9568, 0x2c8f9702},
     {0x95c3a1c2, 0xb2e4b8d7}, {0x7f199de8, 0xc3569fca}},
    // synth_rgb_161x121: q1, q55, q75, q95
    {{0x59412974, 0x3c95ee5b}, {0x020deb13, 0x42265240},
     {0x8283ce41, 0x1041e982}, {0x26a5b7e9, 0x34e59ed7}},
    // noise_rgb_37x21: q1, q55, q75, q95
    {{0x40403bf7, 0x5ae3c816}, {0x59dbfd56, 0x1cfdbecd},
     {0x5b037f56, 0x883fb491}, {0x018895fb, 0xfb4e0b15}},
    // noise_rgb_3x7: q1, q55, q75, q95
    {{0x11a015ec, 0xda79bda2}, {0xe5679b1e, 0xc7713317},
     {0xe22b14c8, 0x41e54f78}, {0x3d8572bf, 0xc9ed3f5e}},
    // noise_rgb_1x1: q1, q55, q75, q95
    {{0xd679970f, 0x46cd2688}, {0x308864f9, 0xb6d79b35},
     {0x13589197, 0x55f50a39}, {0xcd70d7c2, 0x074fec3c}},
    // synth_gray_63x47: q1, q55, q75, q95
    {{0x9e7fe078, 0x46358b3a}, {0x242a2ce1, 0x3bd56c4f},
     {0x29cb39a0, 0xb62c99f8}, {0xfe5ec4b9, 0x7451b896}},
    // noise_gray_31x17: q1, q55, q75, q95
    {{0xb17412d6, 0xd9f93733}, {0xf0c270a3, 0x4722ff7d},
     {0x8889c7d9, 0x82824433}, {0xf414ab72, 0x23add0f0}},
    // smooth_gray_127x1: q1, q55, q75, q95
    {{0xf0f03410, 0xe81b320e}, {0xbbabea7c, 0x38e369ab},
     {0x5de9507c, 0x57bdd794}, {0x9c6a8ab2, 0x507e134b}},
};

std::uint32_t crc_of(std::uint32_t value, std::uint32_t seed) {
  const std::array<std::uint8_t, 4> bytes{
      static_cast<std::uint8_t>(value), static_cast<std::uint8_t>(value >> 8),
      static_cast<std::uint8_t>(value >> 16), static_cast<std::uint8_t>(value >> 24)};
  return crc32(bytes, seed);
}

TEST(SjpgGolden, EncodedBytesAndDecodedPixelsArePinned) {
  const auto images = golden_images();
  for (std::size_t i = 0; i < images.size(); ++i) {
    for (std::size_t q = 0; q < kGoldenQualities.size(); ++q) {
      const auto blob = sjpg_encode(images[i].img, kGoldenQualities[q]);
      const auto decoded = sjpg_decode(blob);
      ASSERT_TRUE(decoded.has_value()) << images[i].name << " q" << kGoldenQualities[q];
      EXPECT_EQ(crc32(blob), kGolden[i][q].encoded)
          << images[i].name << " q" << kGoldenQualities[q];
      EXPECT_EQ(crc32(decoded->data()), kGolden[i][q].decoded)
          << images[i].name << " q" << kGoldenQualities[q];
    }
  }
}

/// Folds decode verdicts into one digest: a flag byte per blob, followed by
/// the crc of the pixels when the blob was accepted.
struct CorpusDigest {
  std::size_t blobs = 0;
  std::size_t accepted = 0;
  std::uint32_t crc = 0;

  void fold(std::span<const std::uint8_t> blob) {
    const auto decoded = sjpg_decode(blob);
    ++blobs;
    const std::array<std::uint8_t, 1> flag{static_cast<std::uint8_t>(decoded ? 1 : 0)};
    crc = crc32(flag, crc);
    if (decoded) {
      ++accepted;
      crc = crc_of(crc32(decoded->data()), crc);
    }
  }
};

TEST(SjpgGolden, TruncationVerdictsArePinned) {
  CorpusDigest digest;
  for (const auto& blob : {sjpg_encode(synth_image(40, 30, 0.3, 9), 75),
                           sjpg_encode(random_image(31, 17, 1, 8), 95),
                           sjpg_encode(synth_image(48, 32, 0.05, 10), 1)}) {
    for (std::size_t len = 0; len <= blob.size(); ++len) {
      digest.fold(std::span(blob).first(len));
    }
  }
  EXPECT_EQ(digest.blobs, 1779u);
  EXPECT_EQ(digest.accepted, 3u);
  EXPECT_EQ(digest.crc, 0x53c277a6u);
}

TEST(SjpgGolden, BitFlipVerdictsArePinned) {
  CorpusDigest digest;
  Rng rng(2024);
  for (const auto& clean : {sjpg_encode(synth_image(40, 30, 0.3, 11), 55),
                            sjpg_encode(synth_image(33, 25, 0.7, 12), 95),
                            sjpg_encode(gray_of(synth_image(45, 19, 0.5, 13)), 75)}) {
    for (int trial = 0; trial < 300; ++trial) {
      auto blob = clean;
      const int flips = 1 + trial % 3;
      for (int f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(10, static_cast<std::int64_t>(blob.size()) - 1));
        blob[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      digest.fold(blob);
    }
  }
  EXPECT_EQ(digest.blobs, 900u);
  EXPECT_EQ(digest.accepted, 577u);
  EXPECT_EQ(digest.crc, 0xbf7c4b18u);
}

/// A blob whose first plane carries a hand-made code-length table: the
/// header is valid, the row predictors and the entropy body are random.
std::vector<std::uint8_t> forged_blob(Rng& rng, const std::vector<std::uint8_t>& lengths) {
  const int w = static_cast<int>(rng.uniform_int(1, 24));
  const int h = static_cast<int>(rng.uniform_int(1, 16));
  const int channels = rng.bernoulli(0.5) ? 3 : 1;
  BitWriter out;
  out.put(0x534a5047, 32);  // "SJPG"
  out.put(static_cast<std::uint64_t>(w), 16);
  out.put(static_cast<std::uint64_t>(h), 16);
  out.put(static_cast<std::uint64_t>(channels), 8);
  out.put(static_cast<std::uint64_t>(rng.uniform_int(1, 100)), 8);
  for (int y = 0; y < h; ++y) out.put(static_cast<std::uint64_t>(rng.uniform_int(0, 3)), 2);
  write_code_lengths(out, lengths);
  const auto body = rng.uniform_int(0, 12 * static_cast<std::int64_t>(w) * h * channels / 8 + 8);
  for (std::int64_t i = 0; i < body; ++i) out.put(rng.next(), 8);
  return out.finish();
}

TEST(SjpgGolden, ForgedCodeLengthVerdictsArePinned) {
  CorpusDigest digest;
  Rng rng(77);
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<std::uint8_t> lengths(512, 0);
    const auto used = rng.uniform_int(1, 48);
    switch (trial % 3) {
      case 0:  // over-subscribed: many short codes
        for (std::int64_t i = 0; i < used; ++i)
          lengths[static_cast<std::size_t>(rng.uniform_int(0, 511))] =
              static_cast<std::uint8_t>(rng.uniform_int(1, 6));
        break;
      case 1:  // incomplete: a few codes leaving unused code space
        for (std::int64_t i = 0; i < std::min<std::int64_t>(used, 6); ++i)
          lengths[static_cast<std::size_t>(rng.uniform_int(0, 511))] =
              static_cast<std::uint8_t>(rng.uniform_int(3, 12));
        break;
      default:  // long codes past any lookup width, up to the 5-bit maximum
        for (std::int64_t i = 0; i < used; ++i)
          lengths[static_cast<std::size_t>(rng.uniform_int(0, 511))] =
              static_cast<std::uint8_t>(rng.uniform_int(1, 31));
        break;
    }
    digest.fold(forged_blob(rng, lengths));
  }
  EXPECT_EQ(digest.blobs, 600u);
  EXPECT_EQ(digest.accepted, 113u);
  EXPECT_EQ(digest.crc, 0x92c845afu);
}

// Zero runs across row ends. Every plane of a flat image predicts each pixel
// exactly, so its residuals are one zero run from the first pixel to the
// last, crossing every row end; a bump in the last pixel ends that run one
// pixel early with a literal. The lengths sit at the coder's edges: below
// kMinRun (4), at it, at kMaxRun (1027) and just past it, where a capped run
// leaves a remainder below 4 that is coded as literal zeros. At quality 60
// the jittered images quantise to the same flat reconstruction; at 92
// (step 1) their residuals are literals. Names give the luma run.
image::Image flat_image(int w, int h, int channels, int jitter, bool bump) {
  image::Image img(w, h, channels);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < channels; ++c) {
        const int noise = jitter > 0 ? (x * 5 + y * 3 + c) % (2 * jitter + 1) - jitter : 0;
        img.set(x, y, c, static_cast<std::uint8_t>(128 + noise));
      }
  if (bump) {
    for (int c = 0; c < channels; ++c) img.set(w - 1, h - 1, c, 200);
  }
  return img;
}

TEST(SjpgGolden, ZeroRunEdgesArePinned) {
  struct Case {
    const char* name;
    int w;
    int h;
    int channels;
    int jitter;
    bool bump;
    std::array<std::uint32_t, 2> crc;  // quality 60, 92
  };
  const Case kCases[] = {
      {"run3_end_3x1", 3, 1, 1, 0, false, {0x37ba515e, 0xae882613}},
      {"run3_bump_2x2", 2, 2, 1, 0, true, {0xb2b2d8d7, 0x132611e1}},
      {"run4_end_2x2", 2, 2, 1, 0, false, {0x14017b0b, 0x1cf57451}},
      {"run4_bump_1x5", 1, 5, 1, 0, true, {0x9f94d0b4, 0xf4309a41}},
      {"run1027_end_79x13", 79, 13, 1, 0, false, {0xdccc8208, 0x80af03ac}},
      {"run1027_bump_4x257", 4, 257, 1, 0, true, {0x1e96327c, 0x0498b54a}},
      {"run1028_end_2x514", 2, 514, 1, 0, false, {0x90b898a9, 0xc7a23a1e}},
      {"run1029_end_21x49", 21, 49, 1, 0, false, {0xb3d9a88b, 0xd85532b7}},
      {"run1030_end_10x103", 10, 103, 1, 0, false, {0xacd67f04, 0x15ff7c6b}},
      {"run1029_bump_10x103", 10, 103, 1, 0, true, {0x38bf8720, 0x3219b0e1}},
      {"run1030_end_1x1030", 1, 1030, 1, 0, false, {0xaa374426, 0xccb83fe5}},
      {"run1030_bump_1x1031", 1, 1031, 1, 0, true, {0x902c4f5b, 0xc3c3f192}},
      {"run2058_end_2x1029", 2, 1029, 1, 0, false, {0xbf9e3ab6, 0x989e7000}},
      {"jitter_37x29", 37, 29, 1, 3, false, {0x73e1fec2, 0x1ac31698}},
      {"jitter_bump_1x1100", 1, 1100, 1, 3, true, {0x4927b52d, 0xf9421fbc}},
      {"rgb_run2079_end_63x33", 63, 33, 3, 0, false, {0xc62618f6, 0x1b924d3c}},
      {"rgb_run2079_bump_65x32", 65, 32, 3, 0, true, {0x3e183bde, 0x8464da36}},
      {"rgb_jitter_33x65", 33, 65, 3, 2, false, {0xee61eda9, 0x337f2232}},
  };
  constexpr std::array<int, 2> kQualities{60, 92};
  for (const auto& c : kCases) {
    const auto img = flat_image(c.w, c.h, c.channels, c.jitter, c.bump);
    for (std::size_t q = 0; q < kQualities.size(); ++q) {
      const auto blob = sjpg_encode(img, kQualities[q]);
      ASSERT_TRUE(sjpg_decode(blob).has_value()) << c.name << " q" << kQualities[q];
      EXPECT_EQ(crc32(blob), c.crc[q])
          << c.name << " q" << kQualities[q] << ": got 0x" << std::hex << crc32(blob);
    }
  }
}

// Property sweep: compressed size grows with texture at fixed dimensions —
// the behaviour the dataset profiles rely on.
class SjpgTextureSweep : public ::testing::TestWithParam<int> {};

TEST_P(SjpgTextureSweep, SizeGrowsWithTexture) {
  const int quality = GetParam();
  std::size_t prev = 0;
  for (const double texture : {0.05, 0.35, 0.65, 0.95}) {
    dataset::SampleMeta meta;
    meta.id = 17;
    meta.raw = pipeline::SampleShape::encoded(Bytes(1), 160, 120, 3);
    meta.texture = texture;
    const auto blob =
        sjpg_encode(dataset::generate_synthetic_image(meta, 5), quality);
    EXPECT_GT(blob.size(), prev) << "texture " << texture << " quality " << quality;
    prev = blob.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Qualities, SjpgTextureSweep, ::testing::Values(95, 80, 60, 40));

}  // namespace
}  // namespace sophon::codec
