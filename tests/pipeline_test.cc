#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "codec/sjpg.h"
#include "dataset/synth.h"
#include "net/message.h"
#include "net/wire.h"
#include "pipeline/extra_ops.h"
#include "util/check.h"
#include "util/crc32.h"

namespace sophon::pipeline {
namespace {

image::Image test_image(int w, int h) {
  image::Image img(w, h, 3);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < 3; ++c)
        img.set(x, y, c, static_cast<std::uint8_t>((x * 2 + y * 3 + c * 13) % 256));
  return img;
}

SampleData encoded_sample(int w, int h) {
  return EncodedBlob{codec::sjpg_encode(test_image(w, h), 90)};
}

SampleShape raw_shape(const SampleData& blob, int w, int h) {
  return SampleShape::encoded(sample_byte_size(blob), w, h);
}

TEST(Pipeline, StandardHasFiveOpsInOrder) {
  const auto pipe = Pipeline::standard();
  ASSERT_EQ(pipe.size(), 5u);
  EXPECT_EQ(pipe.op(0).kind(), OpKind::kDecode);
  EXPECT_EQ(pipe.op(1).kind(), OpKind::kRandomResizedCrop);
  EXPECT_EQ(pipe.op(2).kind(), OpKind::kRandomHorizontalFlip);
  EXPECT_EQ(pipe.op(3).kind(), OpKind::kToTensor);
  EXPECT_EQ(pipe.op(4).kind(), OpKind::kNormalize);
}

TEST(Pipeline, RunAllYieldsNormalizedTensor) {
  const auto pipe = Pipeline::standard();
  const auto out = pipe.run_seeded(encoded_sample(300, 200), 0, pipe.size(), 1);
  const auto* t = std::get_if<image::Tensor>(&out);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->width(), 224);
  EXPECT_EQ(t->height(), 224);
  EXPECT_EQ(t->channels(), 3);
}

TEST(Pipeline, PartialRunStopsAtStage) {
  const auto pipe = Pipeline::standard();
  const auto at2 = pipe.run_seeded(encoded_sample(300, 200), 0, 2, 2);
  const auto* img = std::get_if<image::Image>(&at2);
  ASSERT_NE(img, nullptr);
  EXPECT_EQ(img->width(), 224);
}

TEST(Pipeline, SplitRunMatchesContiguousRun) {
  // The offloading invariant: running [0,k) then [k,5) with the same stream
  // seed equals running [0,5) in one go — for every cut point.
  const auto pipe = Pipeline::standard();
  const auto sample = encoded_sample(400, 300);
  const std::uint64_t stream = 12345;
  const auto whole = pipe.run_seeded(sample, 0, 5, stream);
  for (std::size_t k = 0; k <= 5; ++k) {
    auto part = pipe.run_seeded(sample, 0, k, stream);
    part = pipe.run_seeded(std::move(part), k, 5, stream);
    EXPECT_EQ(std::get<image::Tensor>(part), std::get<image::Tensor>(whole)) << "cut at " << k;
  }
}

TEST(Pipeline, SeededRunsAreReproducible) {
  const auto pipe = Pipeline::standard();
  const auto sample = encoded_sample(256, 256);
  const auto a = pipe.run_seeded(sample, 0, 5, 99);
  const auto b = pipe.run_seeded(sample, 0, 5, 99);
  const auto c = pipe.run_seeded(sample, 0, 5, 100);
  EXPECT_EQ(std::get<image::Tensor>(a), std::get<image::Tensor>(b));
  EXPECT_NE(std::get<image::Tensor>(a), std::get<image::Tensor>(c));
}

TEST(Pipeline, ShapeAtTracksRepresentations) {
  const auto pipe = Pipeline::standard();
  const auto raw = SampleShape::encoded(Bytes(462 * 1024), 2048, 1536);
  EXPECT_EQ(pipe.shape_at(raw, 0).repr, Repr::kEncoded);
  EXPECT_EQ(pipe.shape_at(raw, 1).repr, Repr::kImage);
  EXPECT_EQ(pipe.shape_at(raw, 1).byte_size().count(), 2048 * 1536 * 3);
  EXPECT_EQ(pipe.shape_at(raw, 2).byte_size().count(), 224 * 224 * 3);
  EXPECT_EQ(pipe.shape_at(raw, 3).byte_size().count(), 224 * 224 * 3);
  EXPECT_EQ(pipe.shape_at(raw, 4).byte_size().count(), 224 * 224 * 3 * 4);
  EXPECT_EQ(pipe.shape_at(raw, 5).byte_size().count(), 224 * 224 * 3 * 4);
}

TEST(Pipeline, ShapeAtMatchesRealExecutionEverywhere) {
  const auto pipe = Pipeline::standard();
  const auto sample = encoded_sample(640, 480);
  const auto raw = raw_shape(sample, 640, 480);
  for (std::size_t k = 0; k <= pipe.size(); ++k) {
    const auto real = pipe.run_seeded(sample, 0, k, 7);
    EXPECT_EQ(pipe.shape_at(raw, k).byte_size(), sample_byte_size(real)) << "stage " << k;
  }
}

TEST(Pipeline, AnalyticTraceReproducesFigure1aSampleA) {
  // Paper's Sample A: 462 KB JPEG, large source → minimum after
  // RandomResizedCrop, ToTensor inflates 4x.
  const auto pipe = Pipeline::standard();
  const auto raw = SampleShape::encoded(Bytes(462 * 1024), 2048, 1536);
  const pipeline::CostModel cm;
  const auto trace = pipe.analytic_trace(raw, cm);
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace[0].size.count(), 462 * 1024);
  EXPECT_GT(trace[1].size, trace[0].size);                   // decode inflates
  EXPECT_LT(trace[2].size, trace[0].size);                   // crop shrinks below raw
  EXPECT_EQ(trace[3].size, trace[2].size);                   // flip size-neutral
  EXPECT_EQ(trace[4].size.count(), trace[2].size.count() * 4);  // ToTensor 4x
  EXPECT_EQ(trace[5].size, trace[4].size);                   // normalize size-neutral
  EXPECT_EQ(pipe.min_size_stage(raw), 2u);
}

TEST(Pipeline, MinStageZeroForSmallImages) {
  // Paper's Sample B: already-small raw JPEG should not be offloaded.
  const auto pipe = Pipeline::standard();
  const auto raw = SampleShape::encoded(Bytes(90 * 1024), 500, 375);
  EXPECT_EQ(pipe.min_size_stage(raw), 0u);
}

TEST(Pipeline, PrefixPlusSuffixEqualsTotalCost) {
  const auto pipe = Pipeline::standard();
  const pipeline::CostModel cm;
  const auto raw = SampleShape::encoded(Bytes(300'000), 1600, 1200);
  const auto total = pipe.suffix_cost(raw, 0, cm);
  for (std::size_t k = 0; k <= pipe.size(); ++k) {
    const auto split = pipe.prefix_cost(raw, k, cm) + pipe.suffix_cost(raw, k, cm);
    EXPECT_NEAR(split.value(), total.value(), 1e-12) << "cut at " << k;
  }
}

TEST(Pipeline, OpCostMatchesTraceEntries) {
  const auto pipe = Pipeline::standard();
  const pipeline::CostModel cm;
  const auto raw = SampleShape::encoded(Bytes(200'000), 1024, 768);
  const auto trace = pipe.analytic_trace(raw, cm);
  for (std::size_t i = 0; i < pipe.size(); ++i) {
    EXPECT_DOUBLE_EQ(pipe.op_cost(raw, i, cm).value(), trace[i + 1].op_cost.value());
  }
}

TEST(Pipeline, RunRejectsBadStageBounds) {
  const auto pipe = Pipeline::standard();
  EXPECT_THROW((void)pipe.run_seeded(encoded_sample(64, 64), 3, 2, 3), ContractViolation);
  EXPECT_THROW((void)pipe.run_seeded(encoded_sample(64, 64), 0, 6, 3), ContractViolation);
  EXPECT_THROW((void)pipe.op(5), ContractViolation);
}

TEST(Pipeline, CustomTargetSize) {
  const auto pipe = Pipeline::standard(96);
  const auto out = pipe.run_seeded(encoded_sample(300, 300), 0, 2, 4);
  EXPECT_EQ(std::get<image::Image>(out).width(), 96);
}

// Tensor pins: crc32 of the float bytes `run_seeded` delivers for a grid of
// synthetic images, cut at every stage and carried across the wire in
// between, as an offloaded sample is. Recorded from the per-element
// accessor kernels and the per-pixel decode loop that the row-pointer
// kernels replaced; any change to decode, crop, flip, ToTensor, Normalize
// or the wire format moves them.

struct PinnedImage {
  const char* name;
  int width;
  int height;
  int channels;
  double texture;
};

constexpr std::array<PinnedImage, 8> kPinnedImages{{
    {"rgb_1x37", 1, 37, 3, 0.3},
    {"gray_2x19", 2, 19, 1, 0.6},
    {"rgb_3x5", 3, 5, 3, 0.9},
    {"rgb_33x17", 33, 17, 3, 0.8},
    {"gray_57x41", 57, 41, 1, 0.5},
    {"rgb_97x63", 97, 63, 3, 0.05},
    {"gray_251x187", 251, 187, 1, 0.3},
    {"rgb_301x227", 301, 227, 3, 0.5},
}};
constexpr std::array<int, 3> kPinnedQualities{55, 60, 95};
constexpr std::array<std::uint64_t, 3> kPinnedStreams{1, 2, 3};

// Indexed [kPinnedImages entry][kPinnedQualities entry]; each value folds
// the tensors of every kPinnedStreams seed.
constexpr std::uint32_t kPinnedTensorCrc[8][3] = {
    {0xfe1b2bfd, 0x19ca4030, 0x8d4cf191},  // rgb_1x37
    {0xe8ad5005, 0xae3452ae, 0x0896a1a1},  // gray_2x19
    {0x3ffe183c, 0x892adc77, 0xc661dcf7},  // rgb_3x5
    {0x256780b2, 0x4772f299, 0xeaa053e3},  // rgb_33x17
    {0x862f335f, 0x966587a7, 0xe1e9ad8b},  // gray_57x41
    {0x2ddc63f4, 0xb8bf6bd8, 0x1db6af8f},  // rgb_97x63
    {0xfa67a172, 0x724f974c, 0xc6877e05},  // gray_251x187
    {0x15335370, 0xf3fc9333, 0x6df31aee},  // rgb_301x227
};

image::Image pinned_image(const PinnedImage& spec, std::uint64_t seed) {
  dataset::SampleMeta meta;
  meta.id = seed;
  meta.raw = SampleShape::encoded(Bytes(1), spec.width, spec.height, 3);
  meta.texture = spec.texture;
  const auto rgb = dataset::generate_synthetic_image(meta, seed);
  if (spec.channels == 3) return rgb;
  image::Image gray(spec.width, spec.height, 1);
  for (std::size_t i = 0; i < gray.data().size(); ++i) gray.data()[i] = rgb.data()[3 * i + 1];
  return gray;
}

/// A stage-k payload as the loader receives it: framed by the storage node,
/// then unpacked on the compute side.
SampleData over_the_wire(const SampleData& payload, std::size_t stage) {
  net::FetchResponse response;
  response.stage = static_cast<std::uint8_t>(stage);
  response.payload = net::serialize_sample(payload);
  auto unpacked = net::unpack_response(response);
  SOPHON_CHECK(unpacked.has_value());
  return std::move(*unpacked);
}

std::uint32_t tensor_crc(const image::Tensor& t, std::uint32_t seed) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(t.data().data());
  return crc32(std::span(bytes, t.data().size() * sizeof(float)), seed);
}

TEST(Pipeline, TensorsArePinned) {
  const auto pipe = Pipeline::standard();
  for (std::size_t i = 0; i < kPinnedImages.size(); ++i) {
    const auto& spec = kPinnedImages[i];
    const auto img = pinned_image(spec, i + 1);
    for (std::size_t q = 0; q < kPinnedQualities.size(); ++q) {
      const SampleData blob = EncodedBlob{codec::sjpg_encode(img, kPinnedQualities[q])};
      for (std::size_t k = 0; k <= pipe.size(); ++k) {
        std::uint32_t crc = 0;
        for (const auto stream : kPinnedStreams) {
          auto prefix = pipe.run_seeded(blob, 0, k, stream);
          const auto out = pipe.run_seeded(over_the_wire(prefix, k), k, pipe.size(), stream);
          const auto& tensor = std::get<image::Tensor>(out);
          ASSERT_EQ(tensor.channels(), spec.channels);
          crc = tensor_crc(tensor, crc);
        }
        EXPECT_EQ(crc, kPinnedTensorCrc[i][q])
            << spec.name << " q" << kPinnedQualities[q] << " cut at " << k << ": 0x" << std::hex
            << crc;
      }
    }
  }
}

/// The wire bytes of a payload: its representation, dimensions and every
/// pixel or float byte.
std::vector<std::uint8_t> payload_bytes(const SampleData& payload) {
  return net::serialize_sample(payload);
}

/// torchvision's central-crop fallback of RandomResizedCrop for a w x h
/// image; a drawn rect equal to it is counted as the fallback.
image::CropRect fallback_rect(int w, int h) {
  const double ratio = static_cast<double>(w) / h;
  int cw = w;
  int ch = h;
  if (ratio < 3.0 / 4.0) ch = static_cast<int>(std::lround(w / (3.0 / 4.0)));
  if (ratio > 4.0 / 3.0) cw = static_cast<int>(std::lround(h * (4.0 / 3.0)));
  cw = std::min(cw, w);
  ch = std::min(ch, h);
  return {(w - cw) / 2, (h - ch) / 2, cw, ch};
}

TEST(Pipeline, FusedRunsMatchTheOpByOpChain) {
  // One run_seeded(from, to) call fuses Decode → RandomResizedCrop and
  // ToTensor → Normalize wherever both ops fall in the range; chaining
  // run_seeded(k, k + 1) never does. Every cut must give the same bytes.
  const auto pipe = Pipeline::standard(24);
  const std::array<PinnedImage, 10> images{{
      {"rgb_1x1", 1, 1, 3, 0.5},
      {"gray_1x37", 1, 37, 1, 0.3},
      {"rgb_1x37", 1, 37, 3, 0.3},
      {"rgb_37x1", 37, 1, 3, 0.7},
      {"gray_2x19", 2, 19, 1, 0.6},
      {"rgb_3x5", 3, 5, 3, 0.9},
      {"rgb_33x17", 33, 17, 3, 0.8},
      {"gray_57x41", 57, 41, 1, 0.5},
      {"rgb_97x63", 97, 63, 3, 0.05},
      {"rgb_121x7", 121, 7, 3, 0.4},
  }};
  std::size_t right_edge = 0;
  std::size_t bottom_edge = 0;
  std::size_t fallbacks = 0;
  std::size_t flips = 0;
  std::size_t runs = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const auto& spec = images[i];
    const auto img = pinned_image(spec, i + 11);
    for (const int quality : {55, 60, 95}) {
      const SampleData blob = EncodedBlob{codec::sjpg_encode(img, quality)};
      for (std::uint64_t stream = 1; stream <= 12; ++stream) {
        Rng crop_rng(derive_seed(stream, 1));
        const auto rect = image::sample_resized_crop_rect(spec.width, spec.height, crop_rng);
        right_edge += rect.x + rect.width == spec.width;
        bottom_edge += rect.y + rect.height == spec.height;
        const auto fallback = fallback_rect(spec.width, spec.height);
        fallbacks += rect.x == fallback.x && rect.y == fallback.y &&
                     rect.width == fallback.width && rect.height == fallback.height;
        Rng flip_rng(derive_seed(stream, 2));
        flips += flip_rng.bernoulli(0.5);
        ++runs;

        // stages[k] is the payload at stage k, one op at a time.
        std::vector<SampleData> stages{blob};
        for (std::size_t k = 0; k < pipe.size(); ++k) {
          stages.push_back(pipe.run_seeded(stages[k], k, k + 1, stream));
        }
        for (std::size_t from = 0; from < pipe.size(); ++from) {
          for (std::size_t to = from + 1; to <= pipe.size(); ++to) {
            const auto fused = pipe.run_seeded(stages[from], from, to, stream);
            ASSERT_EQ(payload_bytes(fused), payload_bytes(stages[to]))
                << spec.name << " q" << quality << " stream " << stream << " [" << from << ", "
                << to << ") rect " << rect.x << "," << rect.y << " " << rect.width << "x"
                << rect.height;
          }
        }
      }
    }
  }
  // The grid reached every case the fusion has to get right.
  EXPECT_GT(right_edge, 0u);
  EXPECT_GT(bottom_edge, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(flips, 0u);
  EXPECT_LT(flips, runs);
}

TEST(Pipeline, FusionSkipsOpsThatOnlyShareAKind) {
  // The validation pipeline's Resize reports the crop's kind; it must run
  // on the decoded image as it always did, not as a fused crop.
  std::vector<std::unique_ptr<PreprocessOp>> ops;
  ops.push_back(make_decode_op());
  ops.push_back(make_resize_shorter_op(16));
  const Pipeline pipe(std::move(ops));
  const auto out = pipe.run_seeded(encoded_sample(40, 30), 0, 2, 5);
  const auto& img = std::get<image::Image>(out);
  EXPECT_EQ(img.width(), 21);
  EXPECT_EQ(img.height(), 16);
}

}  // namespace
}  // namespace sophon::pipeline
