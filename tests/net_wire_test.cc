#include "net/wire.h"

#include <gtest/gtest.h>

#include "codec/sjpg.h"
#include "net/message.h"
#include "util/rng.h"

namespace sophon::net {
namespace {

pipeline::SampleData random_tensor(int c, int h, int w, std::uint64_t seed) {
  image::Tensor t(c, h, w);
  Rng rng(seed);
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(Wire, EncodedBlobRoundTrip) {
  pipeline::EncodedBlob blob;
  blob.bytes = {1, 2, 3, 4, 5};
  const auto framed = serialize_sample(pipeline::SampleData{blob});
  const auto back = deserialize_sample(framed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<pipeline::EncodedBlob>(*back).bytes, blob.bytes);
}

TEST(Wire, ImageRoundTrip) {
  image::Image img(13, 7, 3);
  Rng rng(1);
  for (auto& px : img.data()) px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto framed = serialize_sample(pipeline::SampleData{img});
  const auto back = deserialize_sample(framed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<image::Image>(*back), img);
}

TEST(Wire, GrayscaleImageRoundTrip) {
  image::Image img(5, 4, 1);
  img.set(2, 2, 0, 99);
  const auto back = deserialize_sample(serialize_sample(pipeline::SampleData{img}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<image::Image>(*back), img);
}

TEST(Wire, TensorRoundTripBitExact) {
  const auto t = random_tensor(3, 9, 11, 5);
  const auto back = deserialize_sample(serialize_sample(t));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<image::Tensor>(*back), std::get<image::Tensor>(t));
}

TEST(Wire, FramedSizeMatchesAnalyticWireSize) {
  // The analytic wire_size must agree byte-for-byte with serialisation —
  // it is what the simulator charges the link.
  pipeline::EncodedBlob blob;
  blob.bytes.assign(12345, 7);
  const pipeline::SampleData samples[] = {
      pipeline::SampleData{blob},
      pipeline::SampleData{image::Image(224, 224, 3)},
      pipeline::SampleData{image::Tensor(3, 224, 224)},
  };
  for (const auto& s : samples) {
    auto shape = pipeline::shape_of(s);
    EXPECT_EQ(wire_size(shape).count(),
              static_cast<std::int64_t>(serialize_sample(s).size()));
  }
}

TEST(Wire, RejectsTruncatedHeader) {
  EXPECT_FALSE(deserialize_sample(std::vector<std::uint8_t>(8, 0)).has_value());
}

TEST(Wire, RejectsLengthMismatch) {
  auto framed = serialize_sample(pipeline::SampleData{image::Image(4, 4, 3)});
  framed.pop_back();
  EXPECT_FALSE(deserialize_sample(framed).has_value());
  framed.push_back(0);
  framed.push_back(0);
  EXPECT_FALSE(deserialize_sample(framed).has_value());
}

TEST(Wire, RejectsBadTag) {
  auto framed = serialize_sample(pipeline::SampleData{pipeline::EncodedBlob{{1, 2}}});
  framed[0] = 99;
  EXPECT_FALSE(deserialize_sample(framed).has_value());
}

TEST(Wire, RejectsImpossibleImageDims) {
  auto framed = serialize_sample(pipeline::SampleData{image::Image(4, 4, 3)});
  framed[9] = 2;  // channels = 2 is not a legal image
  EXPECT_FALSE(deserialize_sample(framed).has_value());
}

// -- WireFuzz: adversarial-input properties, run in the --asan suite --------
//
// The parsers sit on the trust boundary: shard payloads and fetch responses
// arrive from disk or the wire and may be truncated or bit-rotted. The
// property is not "parsing fails" (a flip inside payload bytes can still
// parse) but "parsing never crashes, over-reads, or returns a value whose
// advertised shape disagrees with its storage" — ASan turns any over-read
// into a hard failure.

std::vector<std::vector<std::uint8_t>> fuzz_frames() {
  pipeline::EncodedBlob blob;
  blob.bytes.assign(313, 0x5A);
  image::Image img(11, 5, 3);
  Rng rng(7);
  for (auto& px : img.data()) px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return {
      serialize_sample(pipeline::SampleData{pipeline::EncodedBlob{{}}}),
      serialize_sample(pipeline::SampleData{blob}),
      serialize_sample(pipeline::SampleData{img}),
      serialize_sample(random_tensor(3, 6, 9, 11)),
  };
}

/// A parsed payload must be internally consistent before anyone walks it.
void expect_well_formed(const pipeline::SampleData& data) {
  if (const auto* t = std::get_if<image::Tensor>(&data)) {
    EXPECT_EQ(t->data().size(),
              static_cast<std::size_t>(t->channels()) * t->height() * t->width());
  } else if (const auto* i = std::get_if<image::Image>(&data)) {
    EXPECT_EQ(i->data().size(),
              static_cast<std::size_t>(i->channels()) * i->height() * i->width());
  }
}

TEST(WireFuzz, EveryTruncationReturnsNullopt) {
  for (const auto& framed : fuzz_frames()) {
    for (std::size_t keep = 0; keep < framed.size(); ++keep) {
      const auto parsed =
          deserialize_sample(std::span<const std::uint8_t>(framed.data(), keep));
      EXPECT_FALSE(parsed.has_value()) << "frame of " << framed.size() << " cut to " << keep;
    }
  }
}

TEST(WireFuzz, SeededBitFlipsNeverCrashOrOverread) {
  Rng rng(42);
  for (const auto& framed : fuzz_frames()) {
    for (int trial = 0; trial < 300; ++trial) {
      auto mutated = framed;
      const int flips = static_cast<int>(rng.uniform_int(1, 4));
      for (int f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
        mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      if (const auto parsed = deserialize_sample(mutated)) expect_well_formed(*parsed);
    }
  }
}

TEST(WireFuzz, UnpackResponseSurvivesTruncationAndFlips) {
  Rng rng(9);
  for (const auto& framed : fuzz_frames()) {
    FetchResponse response;
    for (std::size_t keep = 0; keep < framed.size(); keep += 3) {
      response.payload.assign(framed.begin(),
                              framed.begin() + static_cast<std::ptrdiff_t>(keep));
      EXPECT_FALSE(unpack_response(response).has_value());
    }
    for (int trial = 0; trial < 100; ++trial) {
      response.payload = framed;
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(framed.size()) - 1));
      response.payload[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      if (const auto parsed = unpack_response(response)) expect_well_formed(*parsed);
    }
  }
}

TEST(WireFuzz, PureGarbageNeverParsesAsImageOrTensor) {
  // Random noise has a ~1/256 chance of hitting a legal tag byte; whatever
  // survives the tag check must still satisfy the length equation, so the
  // loop doubles as a check that accidental parses stay well-formed.
  Rng rng(1234);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> noise(
        static_cast<std::size_t>(rng.uniform_int(0, 96)));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (const auto parsed = deserialize_sample(noise)) expect_well_formed(*parsed);
  }
}

}  // namespace
}  // namespace sophon::net
