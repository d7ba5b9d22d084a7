// All five policies over the REAL byte path.
//
// The evaluation benches use the discrete-event simulator; this example
// executes the same comparison on actual bytes: a small materialised
// dataset on the storage server, a multi-worker DataLoader per policy, and
// exactly metered per-epoch traffic. The traffic ordering must match the
// Fig 3 story (and does); wall-clock times are whatever this machine's
// cores give.
#include <chrono>
#include <cstdio>

#include "core/policy.h"
#include "dataset/catalog.h"
#include "loader/loader.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/check.h"
#include "util/table.h"

using namespace sophon;

int main() {
  auto profile = dataset::openimages_profile(96);
  profile.min_pixels = 1.0e5;
  profile.max_pixels = 1.0e6;
  const auto parametric = dataset::Catalog::generate(profile, 42);

  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  storage::DatasetStore store(parametric, 42, profile.quality);
  storage::StorageServer server(store, pipe, cm, {.seed = 42});

  // Materialise everything once so policy timings are comparable, and
  // rebuild the catalog from real blob sizes for honest planning.
  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::size_t i = 0; i < parametric.size(); ++i) blobs.push_back(*store.get(i));
  const auto catalog = dataset::Catalog::from_blobs(blobs);
  std::printf("dataset: %zu real images, %s at rest\n\n", catalog.size(),
              human_bytes(catalog.total_encoded()).c_str());

  core::PlanContext ctx;
  ctx.catalog = &catalog;
  ctx.pipeline = &pipe;
  ctx.cost_model = &cm;
  ctx.cluster.bandwidth = Bandwidth::mbps(6.0);  // scaled to the tiny corpus
  ctx.cluster.storage_cores = 4;
  ctx.gpu_batch_time = Seconds::millis(20.0);
  ctx.seed = 42;

  TextTable table({"policy", "traffic (real bytes)", "vs No-Off", "offloaded",
                   "wall time (this machine)"});
  Bytes no_off_traffic;
  for (const auto kind : core::kPolicyKinds) {
    const auto decision = core::plan_policy(kind, ctx);
    server.reset_counters();

    const auto start = std::chrono::steady_clock::now();
    loader::DataLoader loader(server, pipe, decision.plan, catalog.size(),
                              {.num_workers = 2, .queue_capacity = 16, .seed = 42, .epoch = 0});
    loader.start();
    std::size_t delivered = 0;
    while (loader.next()) ++delivered;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    if (kind == core::PolicyKind::kNoOff) no_off_traffic = loader.traffic();
    table.add_row({std::string(core::policy_kind_name(kind)), human_bytes(loader.traffic()),
                   strf("%.2fx", no_off_traffic.as_double() / loader.traffic().as_double()),
                   strf("%zu", decision.plan.offloaded_count()), strf("%.2f s", wall)});
    SOPHON_CHECK(delivered == catalog.size());
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\n(traffic ratios mirror Figure 3 on real bytes: All-Off inflates, Resize-Off\n"
      " and SOPHON shrink, SOPHON never ships a sample in a larger-than-raw form.)\n");
  return 0;
}
