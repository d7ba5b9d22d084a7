// End-to-end integration over the real byte path: synthetic images through
// the real codec, stored on the storage server, fetched through the wire
// meter with offload directives, finished on the compute side — verifying
// that the traffic the meter counts equals what the analytic path
// predicts, and that offloaded training is bit-identical to local training.
#include <gtest/gtest.h>

#include "core/decision.h"
#include "core/profiler.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/check.h"

namespace sophon {
namespace {

struct Cluster {
  dataset::DatasetProfile profile = [] {
    auto p = dataset::openimages_profile(30);
    // Span the benefit threshold: some raw blobs above the ~147 KiB
    // post-crop size, some below — while keeping materialisation fast.
    p.min_pixels = 1.2e5;
    p.max_pixels = 1.2e6;
    return p;
  }();
  dataset::Catalog parametric = dataset::Catalog::generate(profile, 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  storage::DatasetStore store{parametric, 42, profile.quality};
  storage::StorageServer server{store, pipe, cm, {.seed = 42}};
  net::MeteringStorageService meter{server};

  /// A catalog rebuilt from the *actual* blobs, so sizes are exact.
  dataset::Catalog materialized() {
    std::vector<std::vector<std::uint8_t>> blobs;
    for (std::size_t i = 0; i < parametric.size(); ++i) blobs.push_back(*store.get(i));
    return dataset::Catalog::from_blobs(blobs);
  }
};

TEST(Integration, ChannelTrafficMatchesAnalyticWireSizes) {
  Cluster c;
  const auto real_catalog = c.materialized();

  // Fetch every sample raw and every sample at the crop stage; compare the
  // metered traffic with the analytic prediction from the real catalog.
  Bytes predicted;
  for (std::size_t i = 0; i < real_catalog.size(); ++i) {
    net::FetchRequest raw;
    raw.sample_id = i;
    (void)c.meter.fetch(raw);
    predicted += net::wire_size(c.pipe.shape_at(real_catalog.sample(i).raw, 0));

    net::FetchRequest cropped;
    cropped.sample_id = i;
    cropped.directive.prefix_len = 2;
    (void)c.meter.fetch(cropped);
    predicted += net::wire_size(c.pipe.shape_at(real_catalog.sample(i).raw, 2));
  }
  EXPECT_EQ(c.meter.traffic(), predicted);
  EXPECT_EQ(c.meter.responses(), 2 * real_catalog.size());
}

TEST(Integration, OffloadedEpochBitIdenticalToLocalEpoch) {
  // Train "one epoch" both ways for a handful of samples: all-local vs a
  // mixed offload plan. Every resulting tensor must match bit-for-bit —
  // the §3.3 accuracy-preservation argument made concrete.
  Cluster c;
  const std::uint64_t epoch = 1;
  for (std::uint64_t id = 0; id < 10; ++id) {
    const auto stream = storage::augmentation_seed(42, epoch, id);

    // Local: fetch raw, run the whole pipeline on the compute side.
    net::FetchRequest raw;
    raw.sample_id = id;
    raw.epoch = epoch;
    const auto raw_resp = c.meter.fetch(raw);
    const auto raw_payload = net::deserialize_sample(raw_resp.payload);
    ASSERT_TRUE(raw_payload.has_value());
    const auto local = c.pipe.run_seeded(*raw_payload, 0, 5, stream);

    // Offloaded: vary the cut per sample like a SOPHON plan would.
    const auto cut = static_cast<std::uint8_t>(1 + id % 5);
    net::FetchRequest off;
    off.sample_id = id;
    off.epoch = epoch;
    off.directive.prefix_len = cut;
    const auto off_resp = c.meter.fetch(off);
    ASSERT_EQ(off_resp.stage, cut);
    const auto off_payload = net::deserialize_sample(off_resp.payload);
    ASSERT_TRUE(off_payload.has_value());
    const auto finished = c.pipe.run_seeded(*off_payload, cut, 5, stream);

    EXPECT_EQ(std::get<image::Tensor>(finished), std::get<image::Tensor>(local))
        << "sample " << id << " cut " << static_cast<int>(cut);
  }
}

TEST(Integration, MaterializedSizesTrackParametricModel) {
  // The parametric catalog models JPEG-like sizes; SJPG (predictive coding,
  // no DCT) needs roughly 2-3x the rate for the same content, so the
  // materialised blobs run larger but must stay in the same regime —
  // dimensions identical, sizes within a small constant factor.
  Cluster c;
  const auto real_catalog = c.materialized();
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < real_catalog.size(); ++i) {
    const double parametric = c.parametric.sample(i).raw.bytes.as_double();
    const double real = real_catalog.sample(i).raw.bytes.as_double();
    EXPECT_EQ(real_catalog.sample(i).raw.width, c.parametric.sample(i).raw.width);
    EXPECT_EQ(real_catalog.sample(i).raw.height, c.parametric.sample(i).raw.height);
    ratio_sum += real / parametric;
  }
  const double mean_ratio = ratio_sum / static_cast<double>(real_catalog.size());
  EXPECT_GT(mean_ratio, 0.4);
  EXPECT_LT(mean_ratio, 3.5);
}

TEST(Integration, SophonPlanExecutesOnRealBytePath) {
  // Plan with the real decision engine against the materialised catalog,
  // then execute the plan through the server and verify the metered traffic
  // equals the decision engine's prediction.
  Cluster c;
  const auto real_catalog = c.materialized();
  const auto profiles = core::profile_stage2(real_catalog, c.pipe, c.cm);
  sim::ClusterConfig cluster;
  cluster.bandwidth = Bandwidth::mbps(2.0);  // tiny set → tiny link keeps it I/O-bound
  const auto decision = core::decide_offloading(profiles, cluster, Seconds(0.1));
  ASSERT_GT(decision.offloaded, 0u);

  for (std::size_t i = 0; i < real_catalog.size(); ++i) {
    net::FetchRequest req;
    req.sample_id = i;
    req.directive.prefix_len = decision.plan.prefix(i);
    (void)c.meter.fetch(req);
  }
  const double predicted_traffic =
      decision.final_cost.t_net.value() * cluster.bandwidth.bytes_per_sec();
  EXPECT_NEAR(c.meter.traffic().as_double(), predicted_traffic,
              1e-6 * predicted_traffic + 1.0);
}

TEST(Integration, ServerCpuMeterMatchesAnalyticPrefixCosts) {
  Cluster c;
  const auto real_catalog = c.materialized();
  c.server.reset_counters();
  Seconds predicted;
  for (std::size_t i = 0; i < real_catalog.size(); ++i) {
    net::FetchRequest req;
    req.sample_id = i;
    req.directive.prefix_len = 2;
    (void)c.server.fetch(req);
    predicted += c.pipe.prefix_cost(real_catalog.sample(i).raw, 2, c.cm);
  }
  EXPECT_NEAR(c.server.modeled_cpu_time().value(), predicted.value(), 1e-9);
}

}  // namespace
}  // namespace sophon
