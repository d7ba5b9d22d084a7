// Shared setup for the figure/table reproduction benches: the paper's
// evaluation configuration (§4) and formatting helpers so every bench prints
// uniform, diffable tables for EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

#include "core/policy.h"
#include "core/serialize.h"
#include "dataset/catalog.h"
#include "util/json.h"
#include "util/table.h"
#include "util/units.h"

namespace sophon::bench {

/// The paper's experiment setup: RTX-6000 compute node with 48 preprocessing
/// cores, storage node with a variable core budget, 500 Mbps link, AlexNet.
inline core::RunConfig paper_config(int storage_cores = 48) {
  core::RunConfig c;
  c.cluster.compute_cores = 48;
  c.cluster.storage_cores = storage_cores;
  c.cluster.bandwidth = Bandwidth::mbps(500.0);
  c.net = model::NetKind::kAlexNet;
  c.gpu = model::GpuKind::kRtx6000;
  c.seed = 42;
  return c;
}

/// The paper's two datasets at evaluation scale: a ~12 GB OpenImages-like
/// subset (40 k large images) and a ~11 GB ImageNet-like subset (90 k
/// mostly-small images).
inline dataset::Catalog openimages_catalog() {
  return dataset::Catalog::generate(dataset::openimages_profile(40000), 42);
}

inline dataset::Catalog imagenet_catalog() {
  return dataset::Catalog::generate(dataset::imagenet_profile(90000), 42);
}

inline std::string gb(Bytes b) {
  return strf("%.2f GB", b.as_double() / 1e9);
}

/// Builder for the committed BENCH_*.json artifacts (ablation_adapt,
/// ablation_prefetch, ablation_materialize, ...). All of them share one
/// schema shape — `kind` + `version` + flat meta keys + a `rows` array —
/// which the EXPERIMENTS.md tooling relies on; routing every bench through
/// this emitter keeps that shape from drifting per bench.
class ArtifactEmitter {
 public:
  explicit ArtifactEmitter(const char* kind, std::int64_t version = 1) {
    json_.set("kind", kind);
    json_.set("version", version);
  }

  /// Record one top-level meta key (samples, seed, sweep parameters, ...).
  ArtifactEmitter& meta(const char* key, Json value) {
    json_.set(key, std::move(value));
    return *this;
  }

  /// Attach the row array and write the artifact. Prints the outcome either
  /// way; false on I/O failure so main() can exit non-zero.
  [[nodiscard]] bool write(const char* path, Json rows) {
    json_.set("rows", std::move(rows));
    if (!core::save_json_file(json_, path)) {
      std::fprintf(stderr, "failed to write %s\n", path);
      return false;
    }
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  Json json_ = Json::object();
};

inline void print_header(const char* experiment, const char* paper_summary) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper reports: %s\n", paper_summary);
  std::printf("==============================================================\n\n");
}

}  // namespace sophon::bench
