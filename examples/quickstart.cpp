// Quickstart: the smallest end-to-end SOPHON run, on the *real* byte path.
//
//   1. Generate a small synthetic dataset and store it (as real SJPG blobs)
//      in the storage node's memory.
//   2. Profile it and let SOPHON's decision engine build an offload plan.
//   3. Fetch every sample through the metered RPC path with the plan's
//      directives, finish preprocessing locally, and compare the metered
//      traffic against a plain (no-offload) epoch.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/decision.h"
#include "core/profiler.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/table.h"

using namespace sophon;

int main() {
  // --- 1. A small corpus of real encoded images -------------------------
  auto profile = dataset::openimages_profile(64);
  profile.min_pixels = 1.5e5;  // keep the demo snappy
  profile.max_pixels = 1.5e6;
  const auto parametric = dataset::Catalog::generate(profile, 42);

  const auto pipeline = pipeline::Pipeline::standard();
  const pipeline::CostModel cost_model;
  storage::DatasetStore store(parametric, 42, profile.quality);
  storage::StorageServer server(store, pipeline, cost_model, {.seed = 42});
  net::MeteringStorageService meter(server);

  // Rebuild the catalog from the actual blobs so sizes are exact.
  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::size_t i = 0; i < parametric.size(); ++i) blobs.push_back(*store.get(i));
  const auto catalog = dataset::Catalog::from_blobs(blobs);
  std::printf("dataset: %zu images, %s at rest in storage memory\n", catalog.size(),
              human_bytes(catalog.total_encoded()).c_str());

  // --- 2. Profile and decide -------------------------------------------
  const auto profiles = core::profile_stage2(catalog, pipeline, cost_model);
  sim::ClusterConfig cluster;
  cluster.bandwidth = Bandwidth::mbps(4.0);  // tiny corpus → tiny link
  cluster.storage_cores = 4;
  const auto decision = core::decide_offloading(profiles, cluster, Seconds(0.5));
  std::printf("SOPHON plan: offload %zu of %zu samples (%zu beneficial)\n",
              decision.plan.offloaded_count(), catalog.size(),
              decision.beneficial_candidates);

  // --- 3. Run one "epoch" both ways through the real fetch path ---------
  const std::uint64_t epoch = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    net::FetchRequest req;
    req.sample_id = i;
    req.epoch = epoch;
    (void)meter.fetch(req);
  }
  const Bytes plain_traffic = meter.traffic();

  for (std::size_t i = 0; i < catalog.size(); ++i) {
    net::FetchRequest req;
    req.sample_id = i;
    req.epoch = epoch;
    req.directive.prefix_len = decision.plan.prefix(i);
    const auto resp = meter.fetch(req);

    // Finish the remaining ops locally; the result is a ready tensor.
    const auto payload = net::deserialize_sample(resp.payload);
    const auto tensor = pipeline.run_seeded(*payload, resp.stage, pipeline.size(),
                                            storage::augmentation_seed(42, epoch, i));
    (void)tensor;  // → would go to the GPU here
  }
  const Bytes sophon_traffic = meter.traffic() - plain_traffic;

  TextTable table({"mode", "traffic over the link"});
  table.add_row({"No-Off (raw fetches)", human_bytes(plain_traffic)});
  table.add_row({"SOPHON (selective offload)", human_bytes(sophon_traffic)});
  std::printf("\n%s", table.render().c_str());
  std::printf("\ntraffic reduced %.2fx; storage CPU spent: %s (modeled)\n",
              plain_traffic.as_double() / sophon_traffic.as_double(),
              human_seconds(server.modeled_cpu_time()).c_str());
  return 0;
}
