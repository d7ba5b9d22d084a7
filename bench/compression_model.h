// Selective compression of offloaded payloads (paper §6 future work), the
// strategy ablation A3 measures: a rate/cost model for SJPG-re-encoding an
// image payload, the greedy choice of which offloaded samples ship
// compressed, and the per-sample flows the simulator runs for that choice.
// Bench-local: only bench/ablation_compression.cc and its unit tests use it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "codec/sjpg.h"
#include "core/metrics.h"
#include "core/plan.h"
#include "dataset/catalog.h"
#include "net/wire.h"
#include "pipeline/cost_model.h"
#include "pipeline/pipeline.h"
#include "sim/cluster.h"
#include "sim/trainer.h"
#include "util/units.h"

namespace sophon::bench {

/// Rate/cost model for re-encoding an image payload. Rate: bits per pixel
/// grow with texture, and coarser quantisation (lower quality) removes
/// residual entropy roughly with sqrt(step). The constants were fitted
/// against real SJPG encodes of 224x224 synthetic crops.
struct CompressionModel {
  static constexpr double kBaseBpp = 3.9;
  static constexpr double kTextureBpp = 6.5;
  static constexpr double kTextureExponent = 1.3;
  static constexpr double kEncodeNsPerPixel = 30.0;
  static constexpr double kDecodeNsPerPixel = 18.0;
  int quality = 80;

  /// Estimated payload size for an image of `pixels` pixels and texture in
  /// [0, 1].
  [[nodiscard]] Bytes estimate_compressed(std::int64_t pixels, double texture) const {
    const double step = codec::sjpg_quant_step(quality);
    const double bpp = std::clamp(
        (kBaseBpp + kTextureBpp * std::pow(texture, kTextureExponent)) / std::sqrt(step), 0.25,
        12.0);
    return Bytes(static_cast<std::int64_t>(static_cast<double>(pixels) * bpp / 8.0));
  }
  [[nodiscard]] Seconds encode_cost(std::int64_t pixels) const {
    return Seconds::nanos(kEncodeNsPerPixel * static_cast<double>(pixels));
  }
  [[nodiscard]] Seconds decode_cost(std::int64_t pixels) const {
    return Seconds::nanos(kDecodeNsPerPixel * static_cast<double>(pixels));
  }
};

/// Which samples of an offload plan ship their payload compressed.
struct CompressedPlan {
  std::vector<bool> compress;  // parallel to the catalog
  std::size_t compressed_count = 0;
  core::EpochCostVector final_cost;
};

/// Extend a decided offload plan with selective compression: every sample
/// whose offloaded payload is an uncompressed image is a candidate; apply
/// them in order of bytes saved per storage-CPU second while the network
/// stays the predominant epoch cost and the predicted epoch gets shorter.
inline CompressedPlan decide_compression(const dataset::Catalog& catalog,
                                  const pipeline::Pipeline& pipeline,
                                  const core::OffloadPlan& base, core::EpochCostVector base_cost,
                                  const sim::ClusterConfig& cluster,
                                  const CompressionModel& model) {
  CompressedPlan plan;
  plan.compress.assign(catalog.size(), false);

  struct Candidate {
    std::uint32_t index;
    Bytes saving;
    Seconds storage_cpu;
    Seconds compute_cpu;
    double efficiency;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto& meta = catalog.sample(i);
    const std::size_t prefix = base.prefix(i);
    if (prefix == 0) continue;
    const auto shape = pipeline.shape_at(meta.raw, prefix);
    if (shape.repr != pipeline::Repr::kImage) continue;
    const Bytes compressed = model.estimate_compressed(shape.pixel_count(), meta.texture);
    if (compressed >= shape.byte_size()) continue;
    Candidate c;
    c.index = static_cast<std::uint32_t>(i);
    c.saving = shape.byte_size() - compressed;
    c.storage_cpu = model.encode_cost(shape.pixel_count());
    c.compute_cpu = model.decode_cost(shape.pixel_count());
    c.efficiency = c.saving.as_double() / c.storage_cpu.value();
    candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.efficiency != b.efficiency) return a.efficiency > b.efficiency;
    return a.index < b.index;
  });

  const double capacity = static_cast<double>(cluster.storage_cores) * cluster.storage_core_speed;
  const double bytes_per_sec = cluster.bandwidth.bytes_per_sec();
  core::EpochCostVector cost = base_cost;
  for (const auto& c : candidates) {
    if (!cost.net_predominant() || capacity <= 0.0) break;
    core::EpochCostVector next = cost;
    next.t_net -= Seconds(c.saving.as_double() / bytes_per_sec);
    next.t_cs += c.storage_cpu / capacity;
    next.t_cc += c.compute_cpu / static_cast<double>(cluster.compute_cores);
    if (next.predicted_epoch_time() >= cost.predicted_epoch_time()) break;
    cost = next;
    plan.compress[c.index] = true;
    ++plan.compressed_count;
  }
  plan.final_cost = cost;
  return plan;
}

/// Per-sample flows under `base` with the compressed samples' payloads
/// re-encoded: estimated wire bytes, plus the encode on the storage node and
/// the decode on the compute node.
inline std::function<sim::SampleFlow(std::size_t)> compressed_flows(
    const CompressedPlan& plan, const core::OffloadPlan& base, const dataset::Catalog& catalog,
    const pipeline::Pipeline& pipeline, const pipeline::CostModel& cost_model,
    const CompressionModel& model) {
  return [&plan, &catalog, &pipeline, model,
          planned = sim::plan_flow(catalog, pipeline, cost_model, base.assignment())](
             std::size_t idx) {
    sim::SampleFlow f = planned(idx);
    if (plan.compress[idx]) {
      const auto& meta = catalog.sample(idx);
      const auto pixels = pipeline.shape_at(meta.raw, f.stage).pixel_count();
      f.wire = model.estimate_compressed(pixels, meta.texture) + Bytes(net::kFrameOverheadBytes);
      f.storage_cpu += model.encode_cost(pixels);
      f.compute_cpu += model.decode_cost(pixels);
    }
    return f;
  };
}

}  // namespace sophon::bench
