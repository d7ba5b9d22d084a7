// Figure 2 — SOPHON design overview, reproduced as an executable walkthrough.
//
// The paper's Figure 2 is a block diagram of steps (a)–(f). This binary
// *runs* each step on the real byte path and prints what happened, so the
// figure is verified rather than drawn:
//   (a) stage-1 profiler triages the bottleneck,
//   (b) stage-2 profiler records per-sample sizes/times,
//   (c) the decision engine builds the per-sample plan,
//   (d) fetch requests carry the offloading directives,
//   (e) the storage server executes the prefix and replies,
//   (f) the compute node finishes preprocessing and feeds the GPU.
#include "bench_common.h"
#include "core/decision.h"
#include "core/profiler.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/check.h"

using namespace sophon;

int main() {
  bench::print_header("Figure 2 — design walkthrough (executed, not drawn)",
                      "steps (a)-(f) of the SOPHON workflow");

  // A small materialised corpus so every step below moves real bytes.
  auto profile = dataset::openimages_profile(48);
  profile.min_pixels = 1.2e5;
  profile.max_pixels = 9e5;
  const auto parametric = dataset::Catalog::generate(profile, 42);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  storage::DatasetStore store(parametric, 42, profile.quality);
  storage::StorageServer server(store, pipe, cm, {.seed = 42});
  net::MeteringStorageService meter(server);

  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::size_t i = 0; i < parametric.size(); ++i) blobs.push_back(*store.get(i));
  const auto catalog = dataset::Catalog::from_blobs(blobs);

  sim::ClusterConfig cluster;
  cluster.bandwidth = Bandwidth::mbps(4.0);
  cluster.storage_cores = 4;
  const Seconds batch_time = Seconds::millis(20.0);

  // (a) stage-1 triage.
  const auto throughput = core::profile_stage1(catalog, pipe, cm, cluster, batch_time);
  std::printf("(a) profiler, stage 1: gpu %.0f / io %.0f / cpu %.0f samples/s -> %s-bound\n",
              throughput.gpu_samples_per_sec, throughput.io_samples_per_sec,
              throughput.cpu_samples_per_sec,
              std::string(core::bottleneck_name(throughput.bottleneck())).c_str());
  if (!throughput.io_bound()) {
    std::printf("    not I/O-bound: SOPHON would stop here (standard training).\n");
    return 0;
  }

  // (b) stage-2 per-sample trace.
  const auto profiles = core::profile_stage2(catalog, pipe, cm);
  std::size_t beneficial = 0;
  for (const auto& p : profiles) {
    if (p.benefits()) ++beneficial;
  }
  std::printf("(b) profiler, stage 2: %zu samples traced; %zu shrink at an intermediate stage\n",
              profiles.size(), beneficial);

  // (c) decision engine.
  const Seconds t_g = batch_time * static_cast<double>(
                                       (catalog.size() + cluster.batch_size - 1) /
                                       cluster.batch_size);
  const auto decision = core::decide_offloading(profiles, cluster, t_g);
  std::printf("(c) decision engine: offload %zu samples; predicted T_Net %.1fs -> %.1fs "
              "(T_CS %.1fs)\n",
              decision.offloaded, decision.baseline.t_net.value(),
              decision.final_cost.t_net.value(), decision.final_cost.t_cs.value());

  // (d)+(e)+(f) one epoch of real fetches.
  Bytes raw_equivalent;
  std::size_t directives_sent = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    net::FetchRequest request;                      // (d) directive in the request
    request.sample_id = i;
    request.directive.prefix_len = decision.plan.prefix(i);
    if (request.directive.prefix_len > 0) ++directives_sent;
    const auto response = meter.fetch(request);     // (e) server runs the prefix
    const auto payload = net::unpack_response(response);
    const auto tensor = pipe.run_seeded(*payload, response.stage, pipe.size(),
                                        storage::augmentation_seed(42, 0, i));  // (f)
    SOPHON_CHECK(std::get<image::Tensor>(tensor).width() == 224);
    raw_equivalent += net::wire_size(catalog.sample(i).raw);
  }
  std::printf("(d) fetch requests: %zu of %zu carried a nonzero offload directive\n",
              directives_sent, catalog.size());
  std::printf("(e) storage server: %zu offloaded prefixes executed, %s modeled CPU\n",
              server.offloaded_requests(), human_seconds(server.modeled_cpu_time()).c_str());
  std::printf("(f) compute node: every sample finished to a 224x224 tensor; traffic %s vs %s "
              "raw (%.2fx less)\n",
              human_bytes(meter.traffic()).c_str(), human_bytes(raw_equivalent).c_str(),
              raw_equivalent.as_double() / meter.traffic().as_double());
  return 0;
}
