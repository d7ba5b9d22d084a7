#include "core/reuse.h"

#include <algorithm>
#include <vector>

#include "net/wire.h"
#include "storage/server.h"
#include "util/check.h"

namespace sophon::core {

namespace {

/// Artifact stage for a sample: §3.3's strategy preprocesses "just once to
/// minimum size", so samples whose minimum is the raw form stay raw (and
/// keep their fresh per-epoch augmentations).
std::size_t artifact_stage(const pipeline::Pipeline& pipeline, const pipeline::SampleShape& raw) {
  return pipeline.min_size_stage(raw);
}

}  // namespace

ReuseEvaluation evaluate_preprocess_once(const dataset::Catalog& catalog,
                                         const pipeline::Pipeline& pipeline,
                                         const pipeline::CostModel& cost_model,
                                         const sim::ClusterConfig& cluster,
                                         Seconds gpu_batch_time, std::size_t epochs,
                                         std::uint64_t seed) {
  SOPHON_CHECK(!catalog.empty());
  SOPHON_CHECK(epochs >= 2);
  SOPHON_CHECK_MSG(cluster.storage_cores > 0,
                   "preprocess-once needs storage CPU for the one-time pass");

  ReuseEvaluation eval;
  std::vector<std::uint8_t> stages(catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    stages[i] = static_cast<std::uint8_t>(artifact_stage(pipeline, catalog.sample(i).raw));
  }

  // Epoch 0: storage node runs the one-time prefix per sample and ships the
  // artifact (raw never crosses the link; the artifact is produced next to
  // the data).
  const auto first_flow = sim::plan_flow(catalog, pipeline, cost_model, stages);
  eval.first_epoch = sim::simulate_epoch_flows(catalog.size(), first_flow, cluster,
                                               gpu_batch_time, seed, 0);

  // Steady state: artifacts are served from storage memory with no CPU.
  const auto steady_flow = [&first_flow](std::size_t idx) {
    sim::SampleFlow f = first_flow(idx);
    f.storage_cpu = Seconds(0.0);
    return f;
  };
  eval.steady_epoch = sim::simulate_epoch_flows(catalog.size(), steady_flow, cluster,
                                                gpu_batch_time, seed, 1);

  // Footprint: only preprocessed artifacts add storage (raw is already at
  // rest). Diversity: raw-served samples keep fresh augmentations every
  // epoch; artifact samples are frozen at one variant.
  std::size_t artifact_samples = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (stages[i] == 0) continue;
    ++artifact_samples;
    eval.stored_footprint += pipeline.shape_at(catalog.sample(i).raw, stages[i]).byte_size();
  }
  const auto n = static_cast<double>(catalog.size());
  eval.variants_per_sample =
      (static_cast<double>(catalog.size() - artifact_samples) * static_cast<double>(epochs) +
       static_cast<double>(artifact_samples) * 1.0) /
      n;
  return eval;
}

std::size_t count_distinct_variants(const pipeline::Pipeline& pipeline,
                                    const pipeline::SampleData& raw_sample, std::size_t epochs,
                                    std::uint64_t seed, std::uint64_t sample_id, bool reuse) {
  SOPHON_CHECK(epochs >= 1);
  // Distinct serialized outputs, compared for equality only: a handful of
  // epochs makes the linear scan cheap, and ordering byte vectors (a
  // std::set) trips GCC 12's false -Wstringop-overread at -O3.
  std::vector<std::vector<std::uint8_t>> variants;
  // The artifact, when reusing, is fixed at epoch 0's augmentation streams.
  const auto artifact_seed = storage::augmentation_seed(seed, 0, sample_id);
  pipeline::SampleData artifact = raw_sample;
  std::size_t stage = 0;
  if (reuse) {
    stage = 2;
    artifact = pipeline.run_seeded(artifact, 0, stage, artifact_seed);
  }
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto stream = storage::augmentation_seed(seed, epoch, sample_id);
    const auto out =
        pipeline.run_seeded(artifact, stage, pipeline.size(), reuse ? artifact_seed : stream);
    auto bytes = net::serialize_sample(out);
    if (std::find(variants.begin(), variants.end(), bytes) == variants.end()) {
      variants.push_back(std::move(bytes));
    }
  }
  return variants.size();
}

}  // namespace sophon::core
