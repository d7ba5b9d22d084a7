// Reproduction guards: the qualitative shapes of the paper's evaluation,
// asserted on moderately sized catalogs so the whole suite stays fast. The
// full-scale numbers live in the bench binaries (see EXPERIMENTS.md).
#include <gtest/gtest.h>

#include "core/policy.h"
#include "dataset/catalog.h"

namespace sophon::core {
namespace {

struct Datasets {
  dataset::Catalog openimages = dataset::Catalog::generate(dataset::openimages_profile(8000), 42);
  dataset::Catalog imagenet = dataset::Catalog::generate(dataset::imagenet_profile(18000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;

  RunConfig config(int storage_cores = 48) const {
    RunConfig c;
    // Bandwidth scaled with the reduced catalog so the regime matches the
    // paper's 12 GB @ 500 Mbps.
    c.cluster.bandwidth = Bandwidth::mbps(100.0);
    c.cluster.storage_cores = storage_cores;
    return c;
  }
};

double ratio(Bytes a, Bytes b) {
  return a.as_double() / b.as_double();
}

// --- Figure 3 shapes: ample storage CPU -------------------------------

TEST(Fig3Shapes, OpenImagesTrafficRatios) {
  Datasets d;
  const auto results = run_all_policies(d.openimages, d.pipe, d.cm, d.config());
  const auto& no_off = results[0].stats;
  const auto& all_off = results[1].stats;
  const auto& fastflow = results[2].stats;
  const auto& resize = results[3].stats;
  const auto& sophon = results[4].stats;

  // All-Off inflates traffic ~1.9x (paper: 1.9x).
  EXPECT_NEAR(ratio(all_off.traffic, no_off.traffic), 1.9, 0.15);
  // FastFlow declines offloading → same traffic as No-Off.
  EXPECT_EQ(fastflow.traffic, no_off.traffic);
  // Resize-Off halves traffic (paper: 2x reduction).
  EXPECT_NEAR(ratio(no_off.traffic, resize.traffic), 2.1, 0.25);
  // SOPHON reduces at least as much as Resize-Off (paper: 2.2x).
  EXPECT_GE(ratio(no_off.traffic, sophon.traffic), ratio(no_off.traffic, resize.traffic) - 0.05);
  EXPECT_GT(ratio(no_off.traffic, sophon.traffic), 1.9);
}

TEST(Fig3Shapes, ImagenetTrafficRatios) {
  Datasets d;
  const auto results = run_all_policies(d.imagenet, d.pipe, d.cm, d.config());
  const auto& no_off = results[0].stats;
  const auto& all_off = results[1].stats;
  const auto& resize = results[3].stats;
  const auto& sophon = results[4].stats;

  // All-Off inflates ~5x (paper: 5.1x).
  EXPECT_NEAR(ratio(all_off.traffic, no_off.traffic), 5.0, 0.4);
  // Resize-Off *increases* traffic on ImageNet (paper: 1.3x).
  EXPECT_GT(ratio(resize.traffic, no_off.traffic), 1.1);
  // SOPHON still reduces it (paper: 1.2x).
  EXPECT_GT(ratio(no_off.traffic, sophon.traffic), 1.15);
}

TEST(Fig3Shapes, TrainingTimeOrdering) {
  Datasets d;
  for (const auto* catalog : {&d.openimages, &d.imagenet}) {
    const auto results = run_all_policies(*catalog, d.pipe, d.cm, d.config());
    const double no_off = results[0].stats.epoch_time.value();
    const double all_off = results[1].stats.epoch_time.value();
    const double sophon = results[4].stats.epoch_time.value();
    EXPECT_GT(all_off, no_off);  // All-Off has the longest training time
    EXPECT_LT(sophon, no_off);   // SOPHON improves on the original
    for (const auto& r : results) {
      EXPECT_LE(sophon, r.stats.epoch_time.value() * 1.001) << r.name;
    }
  }
}

TEST(Fig3Shapes, SophonSpeedupInPaperBand) {
  // Paper headline: 1.2–2.2x reduction in training time over existing
  // solutions. Check the speedup vs No-Off lands in a generous band.
  Datasets d;
  const auto oi = run_all_policies(d.openimages, d.pipe, d.cm, d.config());
  const double oi_speedup = oi[0].stats.epoch_time.value() / oi[4].stats.epoch_time.value();
  EXPECT_GT(oi_speedup, 1.5);
  EXPECT_LT(oi_speedup, 3.0);

  const auto in = run_all_policies(d.imagenet, d.pipe, d.cm, d.config());
  const double in_speedup = in[0].stats.epoch_time.value() / in[4].stats.epoch_time.value();
  EXPECT_GT(in_speedup, 1.1);
  EXPECT_LT(in_speedup, 2.0);
}

// --- Figure 4 shapes: limited storage CPU -----------------------------
//
// Core-count crossovers do not scale with the dataset (CPU totals shrink
// with n but core counts do not), so these tests run the paper's full
// configuration: 40 000-sample OpenImages at 500 Mbps.

struct FullScale {
  dataset::Catalog openimages = dataset::Catalog::generate(dataset::openimages_profile(40000), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;

  RunConfig config(int storage_cores) const {
    RunConfig c;
    c.cluster.storage_cores = storage_cores;
    return c;  // defaults: 500 Mbps, 48 compute cores, AlexNet/RTX-6000
  }
};

TEST(Fig4Shapes, AllOffWorstAndWorseWithOneCore) {
  FullScale d;
  const auto one = run_all_policies(d.openimages, d.pipe, d.cm, d.config(1));
  const auto four = run_all_policies(d.openimages, d.pipe, d.cm, d.config(4));
  // All-Off is the slowest policy at both budgets…
  for (const auto& r : one) {
    EXPECT_LE(r.stats.epoch_time.value(), one[1].stats.epoch_time.value() + 1e-9) << r.name;
  }
  // …and its 1-core time is strictly worse than its 4-core time.
  EXPECT_GT(one[1].stats.epoch_time.value(), four[1].stats.epoch_time.value());
}

TEST(Fig4Shapes, ResizeOffWorseThanNoOffWithFewCores) {
  FullScale d;
  const auto results = run_all_policies(d.openimages, d.pipe, d.cm, d.config(2));
  EXPECT_GT(results[3].stats.epoch_time.value(), results[0].stats.epoch_time.value());
  // But Resize-Off still achieves the lowest traffic of all policies.
  for (const auto& r : results) {
    EXPECT_GE(r.stats.traffic, results[3].stats.traffic);
  }
}

TEST(Fig4Shapes, SophonBestAtEveryCoreBudget) {
  FullScale d;
  for (const int cores : {1, 2, 4, 8}) {
    const auto results = run_all_policies(d.openimages, d.pipe, d.cm, d.config(cores));
    const double sophon = results[4].stats.epoch_time.value();
    for (const auto& r : results) {
      EXPECT_LE(sophon, r.stats.epoch_time.value() * 1.001)
          << r.name << " at " << cores << " cores";
    }
  }
}

TEST(Fig4Shapes, SophonDiminishingReturns) {
  FullScale d;
  std::vector<double> times;
  for (const int cores : {0, 1, 2, 4, 5}) {
    const auto results = run_all_policies(d.openimages, d.pipe, d.cm, d.config(cores));
    times.push_back(results[4].stats.epoch_time.value());
  }
  // Monotone improvement…
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i], times[i - 1] + 1e-9);
  // …with the 0→1 jump much larger than the 4→5 jump (paper: 22 s vs 9 s).
  const double first_gain = times[0] - times[1];
  const double late_gain = times[3] - times[4];
  EXPECT_GT(first_gain, 2.0 * late_gain);
}

// --- Figure 1d shape: GPU utilisation by model ------------------------

TEST(Fig1dShapes, GpuUtilizationOrdering) {
  Datasets d;
  auto config = d.config();
  config.gpu = model::GpuKind::kV100;
  // T_G and T_Net both scale linearly with the sample count, so the
  // utilisation ratio is scale-invariant — use the regime's real 1 Gbps.
  config.cluster.bandwidth = Bandwidth::gbps(1.0);

  auto util = [&](model::NetKind net) {
    config.net = net;
    const auto r = run_policy(PolicyKind::kNoOff, d.openimages, d.pipe, d.cm, config);
    return r.stats.gpu_utilization;
  };
  const double alex = util(model::NetKind::kAlexNet);
  const double r18 = util(model::NetKind::kResNet18);
  const double r50 = util(model::NetKind::kResNet50);
  // ResNet50 near-maximal; ResNet18 mid; AlexNet starved (Finding #5).
  EXPECT_GT(r50, 0.85);
  EXPECT_GT(r18, alex);
  EXPECT_LT(r18, 0.6);
  EXPECT_LT(alex, 0.25);
}

}  // namespace
}  // namespace sophon::core
