// Parameterized property sweeps (TEST_P): the library's key invariants
// checked across a grid of configurations rather than hand-picked points.
#include <gtest/gtest.h>

#include "codec/sjpg.h"
#include "core/decision.h"
#include "core/profiler.h"
#include "dataset/synth.h"
#include "net/wire.h"
#include "sim/trainer.h"

namespace sophon {
namespace {

// ---- Pipeline split invariance across (dims, cut, seed) -------------------

struct SplitCase {
  int width;
  int height;
  std::uint64_t stream_seed;
};

class PipelineSplitSweep : public ::testing::TestWithParam<SplitCase> {};

TEST_P(PipelineSplitSweep, SplitEqualsContiguousAtEveryCut) {
  const auto [w, h, stream] = GetParam();
  dataset::SampleMeta meta;
  meta.id = static_cast<std::uint64_t>(w * 1000 + h);
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), w, h, 3);
  meta.texture = 0.4;
  const pipeline::SampleData raw =
      pipeline::EncodedBlob{dataset::materialize_encoded(meta, 3, 70)};
  const auto pipe = pipeline::Pipeline::standard();
  const auto whole = pipe.run_seeded(raw, 0, pipe.size(), stream);
  for (std::size_t cut = 0; cut <= pipe.size(); ++cut) {
    auto part = pipe.run_seeded(raw, 0, cut, stream);
    part = pipe.run_seeded(std::move(part), cut, pipe.size(), stream);
    ASSERT_EQ(std::get<image::Tensor>(part), std::get<image::Tensor>(whole))
        << w << "x" << h << " cut " << cut << " stream " << stream;
  }
}

INSTANTIATE_TEST_SUITE_P(DimsAndSeeds, PipelineSplitSweep,
                         ::testing::Values(SplitCase{160, 120, 1}, SplitCase{160, 120, 2},
                                           SplitCase{301, 211, 1}, SplitCase{97, 240, 9},
                                           SplitCase{512, 96, 5}, SplitCase{224, 224, 7}));

// ---- Codec round trip across (quality, dims) ------------------------------

struct CodecCase {
  int quality;
  int width;
  int height;
};

class CodecRoundTripSweep : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTripSweep, DecodesToSameGeometryWithBoundedError) {
  const auto [quality, w, h] = GetParam();
  dataset::SampleMeta meta;
  meta.id = 77;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), w, h, 3);
  meta.texture = 0.45;
  const auto img = dataset::generate_synthetic_image(meta, 21);
  const auto blob = codec::sjpg_encode(img, quality);
  const auto decoded = codec::sjpg_decode(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->width(), w);
  EXPECT_EQ(decoded->height(), h);
  double err = 0.0;
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    err += std::abs(static_cast<int>(img.data()[i]) - static_cast<int>(decoded->data()[i]));
  }
  // Worst tolerated mean error grows as quality falls.
  const double bound = quality >= 80 ? 6.0 : (quality >= 50 ? 12.0 : 20.0);
  EXPECT_LT(err / static_cast<double>(img.data().size()), bound);
}

INSTANTIATE_TEST_SUITE_P(QualityByDims, CodecRoundTripSweep,
                         ::testing::Values(CodecCase{95, 128, 96}, CodecCase{95, 129, 97},
                                           CodecCase{70, 128, 96}, CodecCase{70, 257, 63},
                                           CodecCase{35, 128, 96}, CodecCase{35, 64, 200}));

// ---- Decision-engine invariants across (bandwidth, cores) -----------------

struct DecisionCase {
  double mbps;
  int storage_cores;
};

// The struct has tail padding, so gtest's default byte dump would put
// indeterminate bytes into the test names; print the fields instead.
void PrintTo(const DecisionCase& c, std::ostream* os) {
  *os << c.mbps << " Mbps, " << c.storage_cores << " cores";
}

class DecisionSweep : public ::testing::TestWithParam<DecisionCase> {
 protected:
  static const dataset::Catalog& catalog() {
    static const auto c = dataset::Catalog::generate(dataset::openimages_profile(3000), 42);
    return c;
  }
  static const std::vector<core::SampleProfile>& profiles() {
    static const auto p =
        core::profile_stage2(catalog(), pipeline::Pipeline::standard(), pipeline::CostModel{});
    return p;
  }
};

TEST_P(DecisionSweep, InvariantsHoldEverywhere) {
  const auto [mbps, cores] = GetParam();
  sim::ClusterConfig cluster;
  cluster.bandwidth = Bandwidth::mbps(mbps);
  cluster.storage_cores = cores;
  const Seconds t_g(2.0);
  const auto result = core::decide_offloading(profiles(), cluster, t_g);

  // (1) Offloading never increases the predicted epoch time.
  EXPECT_LE(result.final_cost.predicted_epoch_time().value(),
            result.baseline.predicted_epoch_time().value() + 1e-9);
  // (2) Network time never increases; storage CPU time never decreases.
  EXPECT_LE(result.final_cost.t_net.value(), result.baseline.t_net.value() + 1e-9);
  EXPECT_GE(result.final_cost.t_cs.value(), 0.0);
  // (3) Only beneficial samples are offloaded, at their min-size stage.
  for (std::size_t i = 0; i < profiles().size(); ++i) {
    if (result.plan.prefix(i) > 0) {
      EXPECT_TRUE(profiles()[i].benefits());
      EXPECT_EQ(result.plan.prefix(i), profiles()[i].min_stage);
    }
  }
  // (4) The analytic evaluator agrees with the engine's internal ledger.
  const auto evaluated = core::evaluate_plan(profiles(), result.plan, cluster, t_g);
  EXPECT_NEAR(evaluated.t_net.value(), result.final_cost.t_net.value(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DecisionSweep,
    ::testing::Values(DecisionCase{50.0, 0}, DecisionCase{50.0, 1}, DecisionCase{50.0, 48},
                      DecisionCase{200.0, 1}, DecisionCase{200.0, 4}, DecisionCase{200.0, 48},
                      DecisionCase{2000.0, 1}, DecisionCase{2000.0, 48},
                      DecisionCase{20000.0, 48}));

// ---- Wire round trip across representations and dims ----------------------

struct WireCase {
  int width;
  int height;
  int channels;
};

class WireSweep : public ::testing::TestWithParam<WireCase> {};

TEST_P(WireSweep, ImageAndTensorSurviveTheWire) {
  const auto [w, h, c] = GetParam();
  image::Image img(w, h, c);
  Rng rng(static_cast<std::uint64_t>(w * 31 + h * 7 + c));
  for (auto& px : img.data()) px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto img_back = net::deserialize_sample(net::serialize_sample(img));
  ASSERT_TRUE(img_back.has_value());
  EXPECT_EQ(std::get<image::Image>(*img_back), img);

  image::Tensor tensor(c, h, w);
  for (auto& v : tensor.data()) v = static_cast<float>(rng.normal());
  const auto t_back = net::deserialize_sample(net::serialize_sample(tensor));
  ASSERT_TRUE(t_back.has_value());
  EXPECT_EQ(std::get<image::Tensor>(*t_back), tensor);
}

INSTANTIATE_TEST_SUITE_P(Dims, WireSweep,
                         ::testing::Values(WireCase{1, 1, 1}, WireCase{1, 1, 3},
                                           WireCase{224, 224, 3}, WireCase{13, 7, 3},
                                           WireCase{640, 1, 1}, WireCase{1, 480, 3}));

}  // namespace
}  // namespace sophon
