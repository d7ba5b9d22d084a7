#include "pipeline/extra_ops.h"

#include <gtest/gtest.h>

#include "codec/sjpg.h"
#include "dataset/synth.h"
#include "net/wire.h"
#include "util/check.h"

namespace sophon::pipeline {
namespace {

image::Image test_image(int w, int h) {
  image::Image img(w, h, 3);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < 3; ++c)
        img.set(x, y, c, static_cast<std::uint8_t>((x * 5 + y * 2 + c * 31) % 256));
  return img;
}

TEST(ResizeShorter, LandscapeAndPortrait) {
  const auto op = make_resize_shorter_op(256);
  Rng rng(1);
  const auto landscape = op->apply(test_image(800, 400), rng);
  EXPECT_EQ(std::get<image::Image>(landscape).height(), 256);
  EXPECT_EQ(std::get<image::Image>(landscape).width(), 512);
  const auto portrait = op->apply(test_image(400, 800), rng);
  EXPECT_EQ(std::get<image::Image>(portrait).width(), 256);
  EXPECT_EQ(std::get<image::Image>(portrait).height(), 512);
}

TEST(ResizeShorter, ShapeMatchesApply) {
  const auto op = make_resize_shorter_op(256);
  SampleShape in;
  in.repr = Repr::kImage;
  in.width = 1000;
  in.height = 707;
  in.channels = 3;
  Rng rng(2);
  const auto out = op->apply(test_image(1000, 707), rng);
  const auto shape = op->out_shape(in);
  EXPECT_EQ(shape.width, std::get<image::Image>(out).width());
  EXPECT_EQ(shape.height, std::get<image::Image>(out).height());
}

TEST(CenterCrop, ExtractsCentralRegion) {
  const auto op = make_center_crop_op(100);
  Rng rng(3);
  const auto img = test_image(300, 200);
  const auto out = std::get<image::Image>(op->apply(img, rng));
  EXPECT_EQ(out.width(), 100);
  EXPECT_EQ(out.height(), 100);
  // Center pixel must match the source's center.
  EXPECT_EQ(out.at(50, 50, 1), img.at(150, 100, 1));
}

TEST(CenterCrop, ClampsToSmallImages) {
  const auto op = make_center_crop_op(500);
  Rng rng(4);
  const auto out = std::get<image::Image>(op->apply(test_image(64, 48), rng));
  EXPECT_EQ(out.width(), 64);
  EXPECT_EQ(out.height(), 48);
}

TEST(ColorJitter, PerturbsButPreservesShape) {
  const auto op = make_color_jitter_op(0.4, 0.4);
  EXPECT_TRUE(op->is_random());
  Rng rng(5);
  const auto img = test_image(64, 64);
  const auto out = std::get<image::Image>(op->apply(img, rng));
  EXPECT_EQ(out.width(), 64);
  EXPECT_NE(out, img);  // almost surely changed
  SampleShape in;
  in.repr = Repr::kImage;
  in.width = 64;
  in.height = 64;
  in.channels = 3;
  EXPECT_EQ(op->out_shape(in), in);
}

TEST(ColorJitter, ZeroJitterStillWellDefined) {
  const auto op = make_color_jitter_op(0.0, 0.0);
  Rng rng(6);
  const auto img = test_image(16, 16);
  const auto out = std::get<image::Image>(op->apply(img, rng));
  // factors are exactly 1.0 → at most rounding drift of ±1.
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    EXPECT_NEAR(out.data()[i], img.data()[i], 1);
  }
}

TEST(ValidationPipeline, IsDeterministicEndToEnd) {
  const auto pipe = validation_pipeline(256, 224);
  ASSERT_EQ(pipe.size(), 5u);
  dataset::SampleMeta meta;
  meta.id = 9;
  meta.raw = SampleShape::encoded(Bytes(1), 400, 300, 3);
  meta.texture = 0.5;
  const SampleData raw = EncodedBlob{dataset::materialize_encoded(meta, 7, 70)};
  // Different stream seeds must still produce identical tensors: there is
  // no random op anywhere in the validation pipeline.
  const auto a = pipe.run_seeded(raw, 0, pipe.size(), 1);
  const auto b = pipe.run_seeded(raw, 0, pipe.size(), 999);
  EXPECT_EQ(std::get<image::Tensor>(a), std::get<image::Tensor>(b));
  EXPECT_EQ(std::get<image::Tensor>(a).width(), 224);
}

TEST(ValidationPipeline, AnalyticTraceHasCorrectSizes) {
  const auto pipe = validation_pipeline(256, 224);
  const auto raw = SampleShape::encoded(Bytes(400 * 1024), 1024, 768);
  const pipeline::CostModel cm;
  const auto trace = pipe.analytic_trace(raw, cm);
  ASSERT_EQ(trace.size(), 6u);
  // Resize(256): shorter side 768→256, longer 1024→341.
  EXPECT_EQ(trace[2].size.count(), 341 * 256 * 3);
  EXPECT_EQ(trace[3].size.count(), 224 * 224 * 3);  // after CenterCrop
  EXPECT_EQ(trace[4].size.count(), 224 * 224 * 3 * 4);
  EXPECT_EQ(pipe.min_size_stage(raw), 3u);
}

TEST(ValidationPipeline, SplitExecutionInvariantHolds) {
  const auto pipe = validation_pipeline();
  dataset::SampleMeta meta;
  meta.id = 11;
  meta.raw = SampleShape::encoded(Bytes(1), 500, 400, 3);
  meta.texture = 0.3;
  const SampleData raw = EncodedBlob{dataset::materialize_encoded(meta, 8, 70)};
  const auto whole = pipe.run_seeded(raw, 0, pipe.size(), 42);
  for (std::size_t cut = 0; cut <= pipe.size(); ++cut) {
    auto part = pipe.run_seeded(raw, 0, cut, 42);
    part = pipe.run_seeded(std::move(part), cut, pipe.size(), 42);
    EXPECT_EQ(std::get<image::Tensor>(part), std::get<image::Tensor>(whole)) << cut;
  }
}

TEST(AugmentedPipeline, HasSixStagesAndWorks) {
  const auto pipe = augmented_pipeline();
  ASSERT_EQ(pipe.size(), 6u);
  dataset::SampleMeta meta;
  meta.id = 12;
  meta.raw = SampleShape::encoded(Bytes(1), 320, 240, 3);
  meta.texture = 0.5;
  const SampleData raw = EncodedBlob{dataset::materialize_encoded(meta, 9, 70)};
  const auto out = pipe.run_seeded(raw, 0, pipe.size(), 3);
  EXPECT_EQ(std::get<image::Tensor>(out).width(), 224);
}

TEST(AugmentedPipeline, DecisionEngineHandlesCustomPipelines) {
  // The profiler and decision engine must work unchanged over the heavier
  // pipeline (sizes still dip at the crop stage).
  const auto pipe = augmented_pipeline();
  const auto raw = SampleShape::encoded(Bytes(500 * 1024), 2048, 1536);
  EXPECT_EQ(pipe.min_size_stage(raw), 2u);
  const pipeline::CostModel cm;
  EXPECT_GT(pipe.prefix_cost(raw, 2, cm).value(), 0.0);
}

TEST(ValidationPipeline, RejectsCropLargerThanResize) {
  EXPECT_THROW((void)validation_pipeline(224, 256), ContractViolation);
}

}  // namespace
}  // namespace sophon::pipeline
