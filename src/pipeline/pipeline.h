// An ordered preprocessing pipeline with partial (stage-bounded) execution —
// the mechanism that makes *selective* offloading possible: the storage node
// runs ops [0, k), the compute node runs ops [k, n).
#pragma once

#include <memory>
#include <vector>

#include "obs/trace.h"
#include "pipeline/op.h"

namespace sophon::pipeline {

/// A pipeline "stage" s means "after s ops have been applied"; stage 0 is
/// the raw encoded sample, stage size() is fully preprocessed.
class Pipeline {
 public:
  Pipeline() = default;
  explicit Pipeline(std::vector<std::unique_ptr<PreprocessOp>> ops);

  /// The paper's five-op image-classification pipeline:
  /// Decode → RandomResizedCrop(target) → RandomHorizontalFlip → ToTensor →
  /// Normalize(ImageNet stats).
  static Pipeline standard(int target_size = 224);

  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] const PreprocessOp& op(std::size_t index) const;

  /// Execute ops [from_stage, to_stage) with per-op RNG streams derived from
  /// `stream_seed`. Because each op gets its own stream (keyed by op index),
  /// the result is identical no matter where the pipeline is cut — the
  /// property that lets the storage node run a prefix and the compute node
  /// the suffix while preserving the exact augmentations of local execution.
  ///
  /// Two adjacent pairs of standard ops run as one step when both ops fall
  /// in the range, with bit-identical results:
  ///   * Decode → RandomResizedCrop draws the crop rect from the SJPG
  ///     header (with the crop's own stream, as the crop op draws it from
  ///     the decoded image), decodes only that region and resamples it;
  ///   * ToTensor → Normalize converts and normalises in one pass.
  /// Each op records a span of `span_category` under its own name when
  /// tracing is enabled (a fused Normalize's span is empty: its work is
  /// timed in ToTensor's); the storage node passes kStoragePrep so prefix
  /// work is attributed to it.
  [[nodiscard]] SampleData run_seeded(
      SampleData sample, std::size_t from_stage, std::size_t to_stage, std::uint64_t stream_seed,
      obs::SpanCategory span_category = obs::SpanCategory::kPreprocess) const;

  /// Analytic shape after `stage` ops, given the raw shape.
  [[nodiscard]] SampleShape shape_at(const SampleShape& raw, std::size_t stage) const;

  /// Analytic single-core cost of op `index` given the raw shape.
  [[nodiscard]] Seconds op_cost(const SampleShape& raw, std::size_t index,
                                const CostModel& model) const;

  /// Analytic cost of ops [0, k) — what the storage node pays to deliver the
  /// sample at stage k.
  [[nodiscard]] Seconds prefix_cost(const SampleShape& raw, std::size_t k,
                                    const CostModel& model) const;

  /// Analytic cost of ops [k, size()) — what the compute node pays to finish
  /// a sample received at stage k.
  [[nodiscard]] Seconds suffix_cost(const SampleShape& raw, std::size_t k,
                                    const CostModel& model) const;

  /// Per-stage wire size and per-op cost for one sample: entry s has the
  /// size at stage s and the cost of the op that produced it (stage 0 cost
  /// is zero). This is exactly the stage-2 profiler's record.
  struct StagePoint {
    Bytes size;
    Seconds op_cost;
  };
  [[nodiscard]] std::vector<StagePoint> analytic_trace(const SampleShape& raw,
                                                       const CostModel& model) const;

  /// Earliest stage at which the sample's wire size is minimal — the optimal
  /// offload cut point for that sample (earliest minimiser spends the least
  /// storage CPU for the same traffic).
  [[nodiscard]] std::size_t min_size_stage(const SampleShape& raw) const;

  /// Length of the longest prefix made only of deterministic ops — the
  /// deepest stage at which a sample may be persisted across epochs. Beyond
  /// it, ops draw per-(epoch, sample) augmentation streams, so a cached
  /// result from one epoch would be wrong for every other (paper §3.3).
  [[nodiscard]] std::size_t deterministic_prefix() const;

 private:
  std::vector<std::unique_ptr<PreprocessOp>> ops_;
};

}  // namespace sophon::pipeline
