// M3 — real-path data-loader throughput: wall-clock samples/second through
// fetch → deserialise → finish-pipeline, as worker count scales.
//
// NOTE: scaling with workers requires physical cores; on a single-core CI
// machine the curve is flat by construction (threads time-share one CPU).
#include <benchmark/benchmark.h>

#include <chrono>

#include "loader/loader.h"
#include "storage/dataset_store.h"
#include "storage/server.h"

namespace sophon {
namespace {

struct LoaderRig {
  dataset::DatasetProfile profile = [] {
    auto p = dataset::openimages_profile(48);
    p.min_pixels = 6e4;
    p.max_pixels = 2.0e5;
    return p;
  }();
  dataset::Catalog catalog = dataset::Catalog::generate(profile, 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  storage::DatasetStore store{catalog, 42, profile.quality};
  storage::StorageServer server{store, pipe, cm, {.seed = 42}};
  core::OffloadPlan plan{catalog.size()};

  LoaderRig() {
    // Pre-materialise so the benchmark measures the load path, not synth.
    for (std::size_t i = 0; i < catalog.size(); ++i) (void)store.get(i);
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      plan.set(i, static_cast<std::uint8_t>(i % 2 == 0 ? 2 : 0));
    }
  }
};

LoaderRig& rig() {
  static LoaderRig r;
  return r;
}

void BM_DataLoaderEpoch(benchmark::State& state) {
  auto& r = rig();
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::size_t epoch = 0;
  // The work runs on loader threads, so the main thread's CPU time says
  // nothing about throughput: the rate is samples over wall-clock seconds.
  double wall_seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    loader::DataLoader loader(r.server, r.pipe, r.plan, r.catalog.size(),
                              {.num_workers = workers,
                               .queue_capacity = 16,
                               .seed = 42,
                               .epoch = epoch++});
    loader.start();
    std::size_t count = 0;
    while (loader.next()) ++count;
    benchmark::DoNotOptimize(count);
    wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  state.counters["samples/s"] =
      static_cast<double>(state.iterations()) * static_cast<double>(r.catalog.size()) /
      wall_seconds;
}
BENCHMARK(BM_DataLoaderEpoch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sophon

BENCHMARK_MAIN();
