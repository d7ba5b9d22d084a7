// Unit tests of A3's bench-local compression strategy (bench/compression_model.h).
#include "compression_model.h"

#include <gtest/gtest.h>

#include "codec/sjpg.h"
#include "core/decision.h"
#include "core/profiler.h"
#include "dataset/synth.h"
#include "image/ops.h"

namespace sophon::bench {
namespace {

struct Fixture {
  dataset::Catalog catalog = dataset::Catalog::generate(dataset::openimages_profile(3000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  std::vector<core::SampleProfile> profiles = core::profile_stage2(catalog, pipe, cm);
  sim::ClusterConfig cluster = [] {
    sim::ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(100.0);
    return c;
  }();
  Seconds t_g = Seconds(3.0);
};

TEST(CompressionModel, SmoothCompressesMoreThanNoisy) {
  const CompressionModel model;
  const auto pixels = 224LL * 224;
  EXPECT_LT(model.estimate_compressed(pixels, 0.1).count(),
            model.estimate_compressed(pixels, 0.9).count());
}

TEST(CompressionModel, LowerQualityIsSmaller) {
  CompressionModel hi;
  hi.quality = 90;
  CompressionModel lo;
  lo.quality = 50;
  const auto pixels = 224LL * 224;
  EXPECT_LT(lo.estimate_compressed(pixels, 0.5).count(),
            hi.estimate_compressed(pixels, 0.5).count());
}

TEST(CompressionModel, CostsScaleWithPixels) {
  const CompressionModel model;
  EXPECT_GT(model.encode_cost(1'000'000).value(), model.encode_cost(10'000).value());
  EXPECT_GT(model.encode_cost(100'000).value(), model.decode_cost(100'000).value());
}

TEST(CompressionModel, EstimateTracksRealCodecWithinFactorTwo) {
  // Calibration guard: the rate model must stay within ~2x of what the real
  // SJPG codec produces for 224x224 crops across the texture range.
  const CompressionModel model;  // quality 80
  for (const double texture : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    dataset::SampleMeta meta;
    meta.id = 3;
    meta.raw = pipeline::SampleShape::encoded(Bytes(1), 448, 448, 3);
    meta.texture = texture;
    const auto src = dataset::generate_synthetic_image(meta, 11);
    const auto crop = image::resize_bilinear(src, 224, 224);
    const auto real = codec::sjpg_encode(crop, model.quality).size();
    const auto est = model.estimate_compressed(224 * 224, texture).count();
    EXPECT_GT(est, static_cast<std::int64_t>(real) / 2) << texture;
    EXPECT_LT(est, static_cast<std::int64_t>(real) * 2) << texture;
  }
}

TEST(DecideCompression, CompressesOnlyOffloadedImagePayloads) {
  Fixture f;
  const auto base = core::decide_offloading(f.profiles, f.cluster, f.t_g);
  const CompressionModel model;
  const auto plan =
      decide_compression(f.catalog, f.pipe, base.plan, base.final_cost, f.cluster, model);
  EXPECT_GT(plan.compressed_count, 0u);
  for (std::size_t i = 0; i < plan.compress.size(); ++i) {
    if (plan.compress[i]) {
      EXPECT_GT(base.plan.prefix(i), 0) << i;
    }
  }
}

TEST(DecideCompression, ReducesPredictedTraffic) {
  Fixture f;
  const auto base = core::decide_offloading(f.profiles, f.cluster, f.t_g);
  const CompressionModel model;
  const auto plan =
      decide_compression(f.catalog, f.pipe, base.plan, base.final_cost, f.cluster, model);
  EXPECT_LT(plan.final_cost.t_net.value(), base.final_cost.t_net.value());
  EXPECT_GE(plan.final_cost.t_cs.value(), base.final_cost.t_cs.value());
  EXPECT_LE(plan.final_cost.predicted_epoch_time().value(),
            base.final_cost.predicted_epoch_time().value() + 1e-9);
}

TEST(DecideCompression, NothingToCompressUnderNoOffPlan) {
  Fixture f;
  const core::OffloadPlan none(f.catalog.size());
  const auto base_cost = core::evaluate_plan(f.profiles, none, f.cluster, f.t_g);
  const CompressionModel model;
  const auto plan = decide_compression(f.catalog, f.pipe, none, base_cost, f.cluster, model);
  EXPECT_EQ(plan.compressed_count, 0u);
}

TEST(CompressedFlows, SimulationSeesSmallerTraffic) {
  Fixture f;
  const auto base = core::decide_offloading(f.profiles, f.cluster, f.t_g);
  const CompressionModel model;
  const auto plan =
      decide_compression(f.catalog, f.pipe, base.plan, base.final_cost, f.cluster, model);
  ASSERT_GT(plan.compressed_count, 0u);

  const auto batch_time = Seconds::millis(85.0);
  const auto uncompressed = sim::simulate_epoch(f.catalog, f.pipe, f.cm, f.cluster, batch_time,
                                                base.plan.assignment(), 42, 0);
  const auto flows = compressed_flows(plan, base.plan, f.catalog, f.pipe, f.cm, model);
  const auto compressed =
      sim::simulate_epoch_flows(f.catalog.size(), flows, f.cluster, batch_time, 42, 0);
  EXPECT_LT(compressed.traffic, uncompressed.traffic);
  EXPECT_LE(compressed.epoch_time.value(), uncompressed.epoch_time.value() * 1.01);
}

}  // namespace
}  // namespace sophon::bench
