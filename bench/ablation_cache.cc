// Ablation A7 — local raw-sample caching vs / with selective offloading.
//
// The paper's intro argues caching approaches (Quiver, SiloD, …) are bounded
// by local capacity while datasets keep growing. This bench quantifies that:
// steady-state traffic & epoch time for cache-only, SOPHON-only, and the
// combination, across cache sizes (dataset is ~12.6 GB).
//
// The cache holds raw blobs only (a preprocessed payload would freeze the
// random augmentations, §3.3), so samples the plan offloads bypass it. A
// hit is the sample's raw flow with nothing on the wire.
#include "bench_common.h"
#include "cache/lru.h"
#include "core/profiler.h"
#include "dataset/sampler.h"

using namespace sophon;

int main() {
  bench::print_header("Ablation A7 — compute-node cache vs selective offloading (OpenImages)",
                      "(paper intro: cache benefit is bounded by local capacity; SOPHON is "
                      "capacity-independent)");

  const auto catalog = bench::openimages_catalog();
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto config = bench::paper_config(48);
  const auto gpu = model::GpuModel::lookup(config.net, config.gpu);
  const Seconds batch_time = gpu.batch_time(config.cluster.batch_size);

  const auto profiles = core::profile_stage2(catalog, pipe, cm);
  const Seconds t_g = batch_time * static_cast<double>(
                                       (catalog.size() + config.cluster.batch_size - 1) /
                                       config.cluster.batch_size);
  const auto decision = core::decide_offloading(profiles, config.cluster, t_g);

  constexpr double kGib[] = {0.0, 2.0, 4.0, 8.0};
  struct Steady {
    double hit_rate = 0.0;
    sim::EpochStats stats;
  };
  Steady steady[4][2];  // [cache size][cache only, SOPHON + cache]

  const core::OffloadPlan plans[] = {core::OffloadPlan(catalog.size()), decision.plan};
  const char* names[] = {"cache only", "SOPHON + cache"};

  TextTable table({"cache size", "variant", "steady hit rate", "traffic/epoch", "epoch time"});
  for (std::size_t s = 0; s < 4; ++s) {
    const auto capacity = Bytes(static_cast<std::int64_t>(kGib[s] * 1024 * 1024 * 1024));
    for (std::size_t v = 0; v < 2; ++v) {
      const auto& plan = plans[v];
      const auto planned = sim::plan_flow(catalog, pipe, cm, plan.assignment());
      cache::LruCache cache(capacity);
      std::vector<std::uint8_t> hit(catalog.size(), 0);
      for (std::size_t e = 0; e < 3; ++e) {  // epoch 2 is the steady state
        std::size_t hits = 0;
        std::size_t accesses = 0;
        const dataset::EpochOrder order(catalog.size(), 42, e);
        for (const auto idx : order.order()) {
          if (plan.prefix(idx) > 0) continue;
          hit[idx] = cache.access(idx, catalog.sample(idx).raw.bytes) ? 1 : 0;
          hits += hit[idx];
          ++accesses;
        }
        const auto flow = [&](std::size_t idx) {
          auto f = planned(idx);
          if (hit[idx]) f.wire = Bytes(0);
          return f;
        };
        steady[s][v].hit_rate =
            accesses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(accesses);
        steady[s][v].stats =
            sim::simulate_epoch_flows(catalog.size(), flow, config.cluster, batch_time, 42, e);
      }
      const auto& last = steady[s][v];
      table.add_row({kGib[s] == 0.0 ? "none" : strf("%.0f GiB", kGib[s]), names[v],
                     strf("%.1f%%", 100.0 * last.hit_rate), bench::gb(last.stats.traffic),
                     strf("%.1f s", last.stats.epoch_time.value())});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n(dataset at rest: %s; 'cache only' with no cache = No-Off)\n",
              bench::gb(catalog.total_encoded()).c_str());

  // An empty cache is plain No-Off; a larger cache never hits less; and the
  // combination ships less than SOPHON alone (the combination at size 0)
  // and than the cache alone, and is no slower than either.
  const auto no_off =
      sim::simulate_epoch(catalog, pipe, cm, config.cluster, batch_time, {}, 42, 2);
  const auto& empty = steady[0][0].stats;
  const bool no_off_matches = empty.traffic == no_off.traffic &&
                              empty.epoch_time == no_off.epoch_time &&
                              empty.compute_cpu_busy == no_off.compute_cpu_busy;
  bool monotone = true;
  bool combined_wins = true;
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t v = 0; v < 2; ++v) {
      if (s > 0 && steady[s][v].hit_rate < steady[s - 1][v].hit_rate) monotone = false;
    }
    const auto& both = steady[s][1].stats;
    for (const auto* other : {&steady[0][1].stats, &steady[s][0].stats}) {
      if (other == &both) continue;
      if (both.traffic >= other->traffic || both.epoch_time > other->epoch_time) {
        combined_wins = false;
      }
    }
  }
  if (no_off_matches && monotone && combined_wins) {
    std::printf("verified: empty cache equals No-Off, hit rate monotone in capacity, "
                "SOPHON + cache ships less than either alone and is no slower\n");
    return 0;
  }
  std::printf("FAILED: no_off_matches=%d monotone=%d combined_wins=%d\n", no_off_matches,
              monotone, combined_wins);
  return 1;
}
