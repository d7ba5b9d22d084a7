// Extension (paper §6 future work): selective compression of offloaded
// payloads.
//
// A sample offloaded at the post-crop stage travels as 224x224x3 raw pixels
// (~147 KiB). The storage node can SJPG-re-encode that payload before
// shipping and the compute node decode it on arrival — trading extra CPU on
// both sides for less traffic. Like offloading itself, this only pays off
// for some samples (smooth crops compress well; noisy ones barely), so the
// decision is again greedy by bytes-saved-per-CPU-second while the network
// stays predominant.
#pragma once

#include <functional>
#include <vector>

#include "core/decision.h"
#include "core/metrics.h"
#include "core/plan.h"
#include "dataset/catalog.h"
#include "pipeline/cost_model.h"
#include "pipeline/pipeline.h"
#include "sim/trainer.h"

namespace sophon::core {

/// Rate/cost model for re-encoding an image payload. Calibrated against the
/// real SJPG codec (tests/core_compression_test.cc checks the estimates
/// track real encodes within a factor of two across the texture range).
struct CompressionModel {
  int quality = 80;
  // Rate model: bits per pixel grows with texture; quantisation (coarser at
  // lower quality) divides it. Constants fitted against real SJPG encodes
  // of 224x224 synthetic crops (see tests/core_compression_test.cc).
  double base_bpp = 3.9;
  double texture_bpp = 6.5;
  double texture_exponent = 1.3;
  // CPU model, per pixel.
  double encode_ns_per_pixel = 30.0;
  double decode_ns_per_pixel = 18.0;

  /// Estimated compressed payload size for an image of `pixels` pixels with
  /// the given texture parameter in [0, 1].
  [[nodiscard]] Bytes estimate_compressed(std::int64_t pixels, double texture) const;

  [[nodiscard]] Seconds encode_cost(std::int64_t pixels) const;
  [[nodiscard]] Seconds decode_cost(std::int64_t pixels) const;
};

/// A plan with optional per-sample payload compression on top of the
/// offload prefixes.
struct CompressedPlan {
  OffloadPlan base;
  std::vector<bool> compress;  // parallel to the catalog
  std::size_t compressed_count = 0;
  EpochCostVector final_cost;
};

/// Extend a decided offload plan with selective compression: considers every
/// sample whose offloaded payload is an uncompressed image, orders by
/// bytes-saved per storage-CPU-second, and applies while the network remains
/// the predominant epoch cost.
[[nodiscard]] CompressedPlan decide_compression(const std::vector<SampleProfile>& profiles,
                                                const dataset::Catalog& catalog,
                                                const pipeline::Pipeline& pipeline,
                                                const OffloadPlan& base,
                                                EpochCostVector base_cost,
                                                const sim::ClusterConfig& cluster,
                                                const CompressionModel& model);

/// Per-sample flows for the simulator under a compressed plan.
[[nodiscard]] std::function<sim::SampleFlow(std::size_t)> make_compressed_flows(
    const CompressedPlan& plan, const dataset::Catalog& catalog,
    const pipeline::Pipeline& pipeline, const pipeline::CostModel& cost_model,
    const CompressionModel& model);

}  // namespace sophon::core
