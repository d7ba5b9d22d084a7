// The preprocessing operator abstraction.
//
// Each op supports two evaluation paths:
//   * `apply`     — real execution on a materialised sample (pixels move),
//   * `out_shape`/`cost` — analytic evaluation on a SampleShape, used by the
//     profiler, decision engine and simulator so that 40 000-sample datasets
//     can be reasoned about without decoding 40 000 images.
// Tests cross-validate the two paths on materialised data.
#pragma once

#include <array>
#include <memory>
#include <string_view>

#include "image/ops.h"
#include "pipeline/cost_model.h"
#include "pipeline/sample.h"
#include "util/rng.h"
#include "util/units.h"

namespace sophon::pipeline {

/// The five operators of the paper's image-classification pipeline, in
/// pipeline order.
enum class OpKind : std::uint8_t {
  kDecode = 0,
  kRandomResizedCrop = 1,
  kRandomHorizontalFlip = 2,
  kToTensor = 3,
  kNormalize = 4,
};

[[nodiscard]] std::string_view op_kind_name(OpKind kind);

/// A single preprocessing operator. Stateless once constructed; randomness
/// comes from the caller-provided Rng so augmentation is reproducible.
class PreprocessOp {
 public:
  virtual ~PreprocessOp() = default;

  [[nodiscard]] virtual OpKind kind() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Execute on a real payload. Precondition: the input representation must
  /// match this op's expected input (enforced with SOPHON_CHECK).
  [[nodiscard]] virtual SampleData apply(SampleData in, Rng& rng) const = 0;

  /// Shape transform without execution.
  [[nodiscard]] virtual SampleShape out_shape(const SampleShape& in) const = 0;

  /// Single-core cost of this op on an input of shape `in`.
  [[nodiscard]] virtual Seconds cost(const SampleShape& in, const CostModel& model) const = 0;

  /// True if the op draws random augmentation parameters — the reason
  /// preprocessed data cannot simply be cached across epochs (paper §3.3).
  [[nodiscard]] virtual bool is_random() const { return false; }
};

/// The standard operators whose adjacent pairs `Pipeline::run_seeded` runs
/// as one step: Decode → RandomResizedCrop and ToTensor → Normalize. The
/// flip, and every other op, is reached only through its factory.
class DecodeOp final : public PreprocessOp {
 public:
  [[nodiscard]] OpKind kind() const override { return OpKind::kDecode; }
  [[nodiscard]] std::string_view name() const override { return op_kind_name(kind()); }
  [[nodiscard]] SampleData apply(SampleData in, Rng& rng) const override;
  [[nodiscard]] SampleShape out_shape(const SampleShape& in) const override;
  [[nodiscard]] Seconds cost(const SampleShape& in, const CostModel& model) const override;
};

class RandomResizedCropOp final : public PreprocessOp {
 public:
  explicit RandomResizedCropOp(int target_size);

  [[nodiscard]] OpKind kind() const override { return OpKind::kRandomResizedCrop; }
  [[nodiscard]] std::string_view name() const override { return op_kind_name(kind()); }
  [[nodiscard]] bool is_random() const override { return true; }
  [[nodiscard]] SampleData apply(SampleData in, Rng& rng) const override;
  [[nodiscard]] SampleShape out_shape(const SampleShape& in) const override;
  [[nodiscard]] Seconds cost(const SampleShape& in, const CostModel& model) const override;

  [[nodiscard]] int target_size() const { return target_size_; }

 private:
  int target_size_;
};

class ToTensorOp final : public PreprocessOp {
 public:
  [[nodiscard]] OpKind kind() const override { return OpKind::kToTensor; }
  [[nodiscard]] std::string_view name() const override { return op_kind_name(kind()); }
  [[nodiscard]] SampleData apply(SampleData in, Rng& rng) const override;
  [[nodiscard]] SampleShape out_shape(const SampleShape& in) const override;
  [[nodiscard]] Seconds cost(const SampleShape& in, const CostModel& model) const override;
};

class NormalizeOp final : public PreprocessOp {
 public:
  NormalizeOp(std::array<float, 3> mean, std::array<float, 3> stddev)
      : mean_(mean), stddev_(stddev) {}

  [[nodiscard]] OpKind kind() const override { return OpKind::kNormalize; }
  [[nodiscard]] std::string_view name() const override { return op_kind_name(kind()); }
  [[nodiscard]] SampleData apply(SampleData in, Rng& rng) const override;
  [[nodiscard]] SampleShape out_shape(const SampleShape& in) const override;
  [[nodiscard]] Seconds cost(const SampleShape& in, const CostModel& model) const override;

  [[nodiscard]] const std::array<float, 3>& mean() const { return mean_; }
  [[nodiscard]] const std::array<float, 3>& stddev() const { return stddev_; }

 private:
  std::array<float, 3> mean_;
  std::array<float, 3> stddev_;
};

/// Factory helpers for the standard operators.
std::unique_ptr<PreprocessOp> make_decode_op();
std::unique_ptr<PreprocessOp> make_random_resized_crop_op(int target_size);
std::unique_ptr<PreprocessOp> make_random_horizontal_flip_op(double probability = 0.5);
std::unique_ptr<PreprocessOp> make_to_tensor_op();
std::unique_ptr<PreprocessOp> make_normalize_op(std::array<float, 3> mean = image::kImagenetMean,
                                                std::array<float, 3> stddev = image::kImagenetStd);

}  // namespace sophon::pipeline
