// Robustness fuzzing: the decoder and the wire parser must never crash,
// hang, or violate contracts on arbitrary input — they return nullopt.
// (Deterministic pseudo-random corpus so CI results are reproducible.)
#include <gtest/gtest.h>

#include "codec/bitio.h"
#include "codec/huffman.h"
#include "codec/sjpg.h"
#include "image/ops.h"
#include "net/wire.h"
#include "util/json.h"
#include "util/rng.h"

namespace sophon {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

TEST(CodecFuzz, RandomBuffersNeverCrashDecoder) {
  Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    const auto junk = random_bytes(rng, 4096);
    (void)codec::sjpg_peek(junk);
    (void)codec::sjpg_decode(junk);  // must return; result value irrelevant
  }
  SUCCEED();
}

TEST(CodecFuzz, ValidMagicRandomBodyNeverCrashes) {
  Rng rng(102);
  for (int trial = 0; trial < 300; ++trial) {
    auto junk = random_bytes(rng, 2048);
    if (junk.size() < 10) junk.resize(10);
    junk[0] = 0x53;  // 'S'
    junk[1] = 0x4a;  // 'J'
    junk[2] = 0x50;  // 'P'
    junk[3] = 0x47;  // 'G'
    // Clamp header fields into the valid range so decoding proceeds into
    // the entropy-coded body.
    junk[4] = 0;
    junk[5] = static_cast<std::uint8_t>(1 + trial % 64);  // width
    junk[6] = 0;
    junk[7] = static_cast<std::uint8_t>(1 + trial % 48);  // height
    junk[8] = (trial % 2 == 0) ? 3 : 1;                   // channels
    junk[9] = static_cast<std::uint8_t>(1 + trial % 100); // quality
    const auto decoded = codec::sjpg_decode(junk);
    if (decoded.has_value()) {
      // If it decodes, the dimensions must match the header we forged.
      EXPECT_EQ(decoded->width(), junk[5]);
      EXPECT_EQ(decoded->height(), junk[7]);
    }
  }
  SUCCEED();
}

TEST(CodecFuzz, TruncationSweepOnValidBlob) {
  // Every truncation point of a valid stream must be rejected or decode to
  // a well-formed image — never crash.
  image::Image img(32, 24, 3);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 32; ++x)
      for (int c = 0; c < 3; ++c)
        img.set(x, y, c, static_cast<std::uint8_t>((x * 7 + y * 3 + c) % 256));
  const auto blob = codec::sjpg_encode(img, 75);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::vector<std::uint8_t> prefix(blob.begin(),
                                           blob.begin() + static_cast<std::ptrdiff_t>(len));
    (void)codec::sjpg_decode(prefix);
  }
  SUCCEED();
}

/// Checks that decoding `blob` with a random region accepts exactly when
/// the whole decode does, and then yields the whole decode's pixels there.
/// Returns whether the blob was accepted.
bool expect_region_verdict_matches(std::span<const std::uint8_t> blob, Rng& rng) {
  const auto whole = codec::sjpg_decode(blob);
  const auto header = codec::sjpg_peek(blob);
  if (!header) {
    EXPECT_FALSE(whole.has_value());
    return false;
  }
  image::CropRect r;
  r.x = static_cast<int>(rng.uniform_int(0, header->width - 1));
  r.y = static_cast<int>(rng.uniform_int(0, header->height - 1));
  r.width = static_cast<int>(rng.uniform_int(1, header->width - r.x));
  r.height = static_cast<int>(rng.uniform_int(1, header->height - r.y));
  if (rng.bernoulli(0.3)) {  // reach the right and bottom edges
    r.width = header->width - r.x;
    r.height = header->height - r.y;
  }
  const auto part = codec::sjpg_decode(blob, r);
  EXPECT_EQ(part.has_value(), whole.has_value())
      << "region " << r.x << "," << r.y << " " << r.width << "x" << r.height;
  if (part && whole) {
    EXPECT_EQ(*part, image::crop(*whole, r))
        << "region " << r.x << "," << r.y << " " << r.width << "x" << r.height;
  }
  return whole.has_value();
}

image::Image textured_image(int w, int h, int channels, std::uint64_t seed) {
  image::Image img(w, h, channels);
  Rng rng(seed);
  std::size_t i = 0;
  for (auto& px : img.data()) {
    px = static_cast<std::uint8_t>((i * 7 / 3 + static_cast<std::size_t>(rng.uniform_int(0, 24))) %
                                   256);
    ++i;
  }
  return img;
}

TEST(CodecFuzz, RegionDecodeVerdictsMatchWholeDecode) {
  Rng rng(105);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto tally = [&](bool ok) { ok ? ++accepted : ++rejected; };
  // Every truncation of valid streams, RGB and grayscale, odd sizes.
  for (const auto& blob : {codec::sjpg_encode(textured_image(29, 23, 3, 1), 60),
                           codec::sjpg_encode(textured_image(17, 9, 1, 2), 95),
                           codec::sjpg_encode(textured_image(40, 3, 3, 3), 1)}) {
    for (std::size_t len = 0; len <= blob.size(); ++len) {
      tally(expect_region_verdict_matches(std::span(blob).first(len), rng));
    }
  }
  // Bit flips in the body.
  for (const auto& clean : {codec::sjpg_encode(textured_image(31, 21, 3, 4), 55),
                            codec::sjpg_encode(textured_image(25, 19, 1, 5), 75)}) {
    for (int trial = 0; trial < 400; ++trial) {
      auto blob = clean;
      for (int f = 0; f < 1 + trial % 3; ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(10, static_cast<std::int64_t>(blob.size()) - 1));
        blob[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      tally(expect_region_verdict_matches(blob, rng));
    }
  }
  // Forged code-length tables: over-subscribed, incomplete and long codes,
  // with random row predictors and entropy bodies.
  for (int trial = 0; trial < 600; ++trial) {
    const int w = static_cast<int>(rng.uniform_int(1, 24));
    const int h = static_cast<int>(rng.uniform_int(1, 16));
    const int channels = rng.bernoulli(0.5) ? 3 : 1;
    std::vector<std::uint8_t> lengths(512, 0);
    const auto used = rng.uniform_int(1, 48);
    const auto max_len = trial % 3 == 0 ? 6 : (trial % 3 == 1 ? 12 : 31);
    for (std::int64_t i = 0; i < used; ++i) {
      lengths[static_cast<std::size_t>(rng.uniform_int(0, 511))] =
          static_cast<std::uint8_t>(rng.uniform_int(1, max_len));
    }
    codec::BitWriter out;
    out.put(0x534a5047, 32);  // "SJPG"
    out.put(static_cast<std::uint64_t>(w), 16);
    out.put(static_cast<std::uint64_t>(h), 16);
    out.put(static_cast<std::uint64_t>(channels), 8);
    out.put(static_cast<std::uint64_t>(rng.uniform_int(1, 100)), 8);
    for (int y = 0; y < h; ++y) out.put(static_cast<std::uint64_t>(rng.uniform_int(0, 3)), 2);
    codec::write_code_lengths(out, lengths);
    const auto body = rng.uniform_int(0, 12 * static_cast<std::int64_t>(w) * h * channels / 8 + 8);
    for (std::int64_t i = 0; i < body; ++i) out.put(rng.next(), 8);
    tally(expect_region_verdict_matches(out.finish(), rng));
  }
  // Both verdicts occur, so both sides of the equivalence were checked.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(WireFuzz, RandomBuffersNeverCrashDeserializer) {
  Rng rng(103);
  for (int trial = 0; trial < 500; ++trial) {
    const auto junk = random_bytes(rng, 1024);
    (void)net::deserialize_sample(junk);
  }
  SUCCEED();
}

TEST(JsonFuzz, RandomTextNeverCrashesParser) {
  Rng rng(104);
  const char alphabet[] = "{}[]\",:0123456789.eE+-truefalsnl \t\n";
  for (int trial = 0; trial < 1000; ++trial) {
    std::string text;
    const auto len = rng.uniform_int(0, 200);
    text.reserve(static_cast<std::size_t>(len));
    for (std::int64_t i = 0; i < len; ++i) {
      text += alphabet[rng.uniform_int(0, static_cast<std::int64_t>(sizeof(alphabet)) - 2)];
    }
    (void)Json::parse(text);
  }
  SUCCEED();
}

TEST(JsonFuzz, DeepNestingDoesNotOverflowQuickly) {
  // 2000 nested arrays — parse must either succeed or fail cleanly.
  std::string text;
  for (int i = 0; i < 2000; ++i) text += '[';
  text += '1';
  for (int i = 0; i < 2000; ++i) text += ']';
  const auto parsed = Json::parse(text);
  EXPECT_TRUE(parsed.has_value());
}

}  // namespace
}  // namespace sophon
