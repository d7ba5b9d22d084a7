#include "core/compression.h"

#include <algorithm>
#include <cmath>

#include "codec/sjpg.h"
#include "net/wire.h"
#include "util/check.h"

namespace sophon::core {

Bytes CompressionModel::estimate_compressed(std::int64_t pixels, double texture) const {
  SOPHON_CHECK(pixels > 0);
  SOPHON_CHECK(texture >= 0.0 && texture <= 1.0);
  const double step = codec::sjpg_quant_step(quality);
  // Coarser quantisation removes residual entropy roughly with sqrt(step).
  const double bpp = std::clamp(
      (base_bpp + texture_bpp * std::pow(texture, texture_exponent)) / std::sqrt(step), 0.25,
      12.0);
  return Bytes(static_cast<std::int64_t>(static_cast<double>(pixels) * bpp / 8.0));
}

Seconds CompressionModel::encode_cost(std::int64_t pixels) const {
  return Seconds::nanos(encode_ns_per_pixel * static_cast<double>(pixels));
}

Seconds CompressionModel::decode_cost(std::int64_t pixels) const {
  return Seconds::nanos(decode_ns_per_pixel * static_cast<double>(pixels));
}

namespace {

/// Compression only applies to samples shipped as uncompressed images
/// (offload prefix lands between Decode and ToTensor).
bool payload_is_image(const pipeline::Pipeline& pipeline, const pipeline::SampleShape& raw,
                      std::size_t prefix) {
  if (prefix == 0) return false;
  return pipeline.shape_at(raw, prefix).repr == pipeline::Repr::kImage;
}

}  // namespace

CompressedPlan decide_compression(const std::vector<SampleProfile>& profiles,
                                  const dataset::Catalog& catalog,
                                  const pipeline::Pipeline& pipeline, const OffloadPlan& base,
                                  EpochCostVector base_cost, const sim::ClusterConfig& cluster,
                                  const CompressionModel& model) {
  SOPHON_CHECK(profiles.size() == catalog.size());
  SOPHON_CHECK(base.size() == catalog.size());

  CompressedPlan plan;
  plan.base = base;
  plan.compress.assign(catalog.size(), false);
  plan.final_cost = base_cost;

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
    if (!payload_is_image(pipeline, meta.raw, prefix)) continue;
    const auto shape = pipeline.shape_at(meta.raw, prefix);
    const Bytes plain = shape.byte_size();
    const Bytes compressed = model.estimate_compressed(shape.pixel_count(), meta.texture);
    if (compressed >= plain) continue;
    Candidate c;
    c.index = static_cast<std::uint32_t>(i);
    c.saving = plain - compressed;
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
  EpochCostVector cost = base_cost;
  for (const auto& c : candidates) {
    if (!cost.net_predominant()) break;
    if (capacity <= 0.0) break;
    EpochCostVector next = cost;
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

std::function<sim::SampleFlow(std::size_t)> make_compressed_flows(
    const CompressedPlan& plan, const dataset::Catalog& catalog,
    const pipeline::Pipeline& pipeline, const pipeline::CostModel& cost_model,
    const CompressionModel& model) {
  return [&plan, &catalog, &pipeline, model,
          base = sim::plan_flow(catalog, pipeline, cost_model, plan.base.assignment())](
             std::size_t idx) {
    sim::SampleFlow f = base(idx);
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

}  // namespace sophon::core
