// Ablation A14 — clairvoyant prefetching: depth x bandwidth x cache sweep.
//
// The epoch order is a seeded shuffle known before training starts, so the
// compute node can pipeline fetches ahead of the loop (NoPFS). This bench
// replays one epoch through the worker-level model (src/prefetch/replay.h)
// at prefetch depths {0 = demand, 1, 4, 16, 64}, link speeds {500 Mbps,
// 1 Gbps}, and raw-blob LRU sizes {none, 1 GiB}, and verifies the two
// properties the subsystem promises: with depth >= workers the epoch is
// strictly faster than demand fetching whenever the link is the bottleneck,
// and prefetching never inflates traffic (CoorDL's rule: bytes stay within
// 1% of the demand baseline — here they are exactly equal).
//
// Emits BENCH_prefetch.json with every row for EXPERIMENTS.md tooling.
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "lru_cache.h"
#include "core/metrics.h"
#include "core/serialize.h"
#include "dataset/sampler.h"
#include "prefetch/replay.h"
#include "util/json.h"
#include "util/telemetry.h"

using namespace sophon;

namespace {

constexpr std::size_t kSamples = 8000;
constexpr std::size_t kWorkers = 8;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kEpoch = 1;  // epoch 0 is the cache warm-up pass

}  // namespace

int main() {
  bench::print_header(
      "Ablation A14 — clairvoyant prefetch depth x bandwidth x cache (OpenImages subset)",
      "(NoPFS: exploiting the known access sequence hides I/O stalls; CoorDL: "
      "prefetch must not inflate traffic)");

  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(kSamples), kSeed);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto config = bench::paper_config(48);
  const auto gpu = model::GpuModel::lookup(config.net, config.gpu);
  const Seconds batch_time = gpu.batch_time(config.cluster.batch_size);

  // Demand baseline fetches raw blobs (no offloading) — the configuration
  // where the link is most exposed and look-ahead has the most to hide.
  const auto flow = sim::plan_flow(catalog, pipe, cm, {});

  TextTable table({"link", "cache", "depth", "bottleneck", "epoch time", "traffic", "hits",
                   "late", "stall", "peak inflight"});
  Json rows = Json::array();
  std::size_t link_bound_configs = 0;
  std::size_t link_bound_wins = 0;
  std::size_t traffic_violations = 0;

  // One registry accumulates across the whole sweep; per-bandwidth numbers
  // come out of snapshot deltas instead of resetting the metrics between
  // blocks — the same pattern a long-lived loader process uses per epoch.
  MetricsRegistry metrics;
  metrics.set_help("sophon_bench_replays", "Epoch replays executed by this sweep.");

  for (const double mbps : {500.0, 1000.0}) {
    const MetricsSnapshot sweep_start = metrics.snapshot();
    auto cluster = config.cluster;
    cluster.bandwidth = Bandwidth::mbps(mbps);
    for (const double cache_gib : {0.0, 1.0}) {
      // Warm-up pass: run the epoch-0 access order through the LRU; whatever
      // is resident afterwards is served locally during the measured epoch.
      std::unordered_set<std::uint64_t> resident;
      if (cache_gib > 0.0) {
        bench::LruCache lru(Bytes::gib(static_cast<std::int64_t>(cache_gib)));
        const dataset::EpochOrder warmup(catalog.size(), kSeed, 0);
        for (std::size_t pos = 0; pos < warmup.size(); ++pos) {
          const auto id = warmup.at(pos);
          lru.access(id, flow(id).wire);
        }
        for (std::size_t id = 0; id < catalog.size(); ++id) {
          if (lru.contains(id)) resident.insert(id);
        }
      }

      prefetch::ReplayOptions options;
      options.workers = kWorkers;
      if (!resident.empty()) {
        options.served_locally = [&resident](std::uint64_t id) { return resident.contains(id); };
      }

      prefetch::ReplayResult demand;
      for (const std::size_t depth : {0, 1, 4, 16, 64}) {
        options.prefetch.depth = depth;
        const auto result = [&] {
          metrics.counter("sophon_bench_replays").increment();
          ScopedTimer timer(metrics.duration("sophon_bench_replay"));
          return prefetch::replay_epoch(catalog.size(), flow, cluster, batch_time, kSeed, kEpoch,
                                        options);
        }();
        if (depth == 0) demand = result;
        metrics.counter("sophon_bench_simulated_bytes")
            .increment(static_cast<std::uint64_t>(result.epoch.traffic.count()));

        // Label the config's bottleneck from the demand-side cost vector.
        // Local preprocessing runs on the loader's workers, not the whole
        // core budget, so t_cc divides by the worker count.
        const core::EpochCostVector costs{
            demand.epoch.gpu_busy,
            demand.epoch.compute_cpu_busy / static_cast<double>(kWorkers),
            demand.epoch.storage_cpu_busy / static_cast<double>(cluster.storage_cores),
            cluster.bandwidth.transfer_time(demand.epoch.traffic)};
        const auto bottleneck = costs.bottleneck();
        const bool link_bound = bottleneck == core::Bottleneck::kIo;

        if (depth >= 4 && link_bound) {
          ++link_bound_configs;
          if (result.epoch.epoch_time < demand.epoch.epoch_time) ++link_bound_wins;
        }
        const auto delta = result.epoch.traffic >= demand.epoch.traffic
                               ? result.epoch.traffic - demand.epoch.traffic
                               : demand.epoch.traffic - result.epoch.traffic;
        if (delta.as_double() > 0.01 * demand.epoch.traffic.as_double()) ++traffic_violations;

        table.add_row({strf("%.0f Mbps", mbps),
                       cache_gib == 0.0 ? "none" : strf("%.0f GiB", cache_gib),
                       depth == 0 ? "demand" : strf("%zu", depth),
                       std::string(core::bottleneck_name(bottleneck)),
                       strf("%.1f s", result.epoch.epoch_time.value()),
                       bench::gb(result.epoch.traffic),
                       strf("%llu", static_cast<unsigned long long>(result.prefetch.hits)),
                       strf("%llu", static_cast<unsigned long long>(result.prefetch.late_hits)),
                       strf("%.1f s", result.prefetch.worker_stall.value()),
                       strf("%llu", static_cast<unsigned long long>(result.prefetch.max_inflight))});

        Json row = Json::object();
        row.set("mbps", mbps);
        row.set("cache_gib", cache_gib);
        row.set("depth", static_cast<std::int64_t>(depth));
        row.set("workers", static_cast<std::int64_t>(kWorkers));
        row.set("bottleneck", std::string(core::bottleneck_name(bottleneck)));
        row.set("epoch_seconds", result.epoch.epoch_time.value());
        row.set("traffic_bytes", static_cast<std::int64_t>(result.epoch.traffic.count()));
        row.set("prefetch_hits", static_cast<std::int64_t>(result.prefetch.hits));
        row.set("late_hits", static_cast<std::int64_t>(result.prefetch.late_hits));
        row.set("served_locally", static_cast<std::int64_t>(result.prefetch.served_locally));
        row.set("worker_stall_seconds", result.prefetch.worker_stall.value());
        row.set("max_inflight", static_cast<std::int64_t>(result.prefetch.max_inflight));
        rows.push_back(row);
      }
    }
    const MetricsSnapshot sweep =
        snapshot_delta(metrics.snapshot(), sweep_start);
    std::printf("[%.0f Mbps] %llu replays, %.2f s replay wall-clock, %.2f GB simulated traffic "
                "(snapshot delta)\n",
                mbps,
                static_cast<unsigned long long>(sweep.counters.at("sophon_bench_replays")),
                sweep.durations.at("sophon_bench_replay").sum,
                static_cast<double>(sweep.counters.at("sophon_bench_simulated_bytes")) / 1e9);
  }

  std::printf("%s\n", table.render().c_str());

  if (!bench::ArtifactEmitter("sophon.bench_prefetch")
           .meta("samples", static_cast<std::int64_t>(kSamples))
           .meta("seed", static_cast<std::int64_t>(kSeed))
           .meta("epoch", static_cast<std::int64_t>(kEpoch))
           .write("BENCH_prefetch.json", rows)) {
    return 1;
  }

  if (link_bound_wins == link_bound_configs && traffic_violations == 0) {
    std::printf("verified: prefetch depth>=4 beats demand on %zu/%zu link-bound configs, "
                "traffic within 1%% everywhere\n",
                link_bound_wins, link_bound_configs);
    return 0;
  }
  std::printf("FAILED: %zu/%zu link-bound wins, %zu traffic violations\n", link_bound_wins,
              link_bound_configs, traffic_violations);
  return 1;
}
