#include <array>
#include <utility>

#include "codec/sjpg.h"
#include "image/ops.h"
#include "pipeline/op.h"
#include "util/check.h"

namespace sophon::pipeline {

std::string_view op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kDecode:
      return "Decode";
    case OpKind::kRandomResizedCrop:
      return "RandomResizedCrop";
    case OpKind::kRandomHorizontalFlip:
      return "RandomHorizontalFlip";
    case OpKind::kToTensor:
      return "ToTensor";
    case OpKind::kNormalize:
      return "Normalize";
  }
  return "Unknown";
}

SampleData DecodeOp::apply(SampleData in, Rng& /*rng*/) const {
  const auto* blob = std::get_if<EncodedBlob>(&in);
  SOPHON_CHECK_MSG(blob != nullptr, "Decode expects an encoded blob");
  auto decoded = codec::sjpg_decode(blob->bytes);
  SOPHON_CHECK_MSG(decoded.has_value(), "corrupt SJPG payload");
  return SampleData(std::move(*decoded));
}

SampleShape DecodeOp::out_shape(const SampleShape& in) const {
  SOPHON_CHECK(in.repr == Repr::kEncoded);
  SampleShape out = in;
  out.repr = Repr::kImage;
  out.bytes = out.byte_size();
  return out;
}

Seconds DecodeOp::cost(const SampleShape& in, const CostModel& model) const {
  return model.decode_cost(in);
}

RandomResizedCropOp::RandomResizedCropOp(int target_size) : target_size_(target_size) {
  SOPHON_CHECK(target_size > 0);
}

SampleData RandomResizedCropOp::apply(SampleData in, Rng& rng) const {
  const auto* img = std::get_if<image::Image>(&in);
  SOPHON_CHECK_MSG(img != nullptr, "RandomResizedCrop expects a decoded image");
  const auto rect = image::sample_resized_crop_rect(img->width(), img->height(), rng);
  return SampleData(image::resized_crop(*img, rect, target_size_));
}

SampleShape RandomResizedCropOp::out_shape(const SampleShape& in) const {
  SOPHON_CHECK(in.repr == Repr::kImage);
  SampleShape out = in;
  out.width = target_size_;
  out.height = target_size_;
  out.bytes = out.byte_size();
  return out;
}

Seconds RandomResizedCropOp::cost(const SampleShape& in, const CostModel& model) const {
  return model.resized_crop_cost(in, target_size_);
}

SampleData ToTensorOp::apply(SampleData in, Rng& /*rng*/) const {
  const auto* img = std::get_if<image::Image>(&in);
  SOPHON_CHECK_MSG(img != nullptr, "ToTensor expects a decoded image");
  return SampleData(image::to_tensor(*img));
}

SampleShape ToTensorOp::out_shape(const SampleShape& in) const {
  SOPHON_CHECK(in.repr == Repr::kImage);
  SampleShape out = in;
  out.repr = Repr::kTensor;
  out.bytes = out.byte_size();
  return out;
}

Seconds ToTensorOp::cost(const SampleShape& in, const CostModel& model) const {
  return model.to_tensor_cost(in);
}

SampleData NormalizeOp::apply(SampleData in, Rng& /*rng*/) const {
  auto* tensor = std::get_if<image::Tensor>(&in);
  SOPHON_CHECK_MSG(tensor != nullptr, "Normalize expects a tensor");
  image::normalize(*tensor, mean_, stddev_);
  return in;
}

SampleShape NormalizeOp::out_shape(const SampleShape& in) const {
  SOPHON_CHECK(in.repr == Repr::kTensor);
  return in;
}

Seconds NormalizeOp::cost(const SampleShape& in, const CostModel& model) const {
  return model.normalize_cost(in);
}

namespace {

class RandomHorizontalFlipOp final : public PreprocessOp {
 public:
  explicit RandomHorizontalFlipOp(double probability) : probability_(probability) {
    SOPHON_CHECK(probability >= 0.0 && probability <= 1.0);
  }

  [[nodiscard]] OpKind kind() const override { return OpKind::kRandomHorizontalFlip; }
  [[nodiscard]] std::string_view name() const override { return op_kind_name(kind()); }
  [[nodiscard]] bool is_random() const override { return true; }

  [[nodiscard]] SampleData apply(SampleData in, Rng& rng) const override {
    auto* img = std::get_if<image::Image>(&in);
    SOPHON_CHECK_MSG(img != nullptr, "RandomHorizontalFlip expects a decoded image");
    if (rng.bernoulli(probability_)) *img = image::horizontal_flip(std::move(*img));
    return in;
  }

  [[nodiscard]] SampleShape out_shape(const SampleShape& in) const override {
    SOPHON_CHECK(in.repr == Repr::kImage);
    return in;
  }

  [[nodiscard]] Seconds cost(const SampleShape& in, const CostModel& model) const override {
    return model.flip_cost(in);
  }

 private:
  double probability_;
};

}  // namespace

std::unique_ptr<PreprocessOp> make_decode_op() {
  return std::make_unique<DecodeOp>();
}

std::unique_ptr<PreprocessOp> make_random_resized_crop_op(int target_size) {
  return std::make_unique<RandomResizedCropOp>(target_size);
}

std::unique_ptr<PreprocessOp> make_random_horizontal_flip_op(double probability) {
  return std::make_unique<RandomHorizontalFlipOp>(probability);
}

std::unique_ptr<PreprocessOp> make_to_tensor_op() {
  return std::make_unique<ToTensorOp>();
}

std::unique_ptr<PreprocessOp> make_normalize_op(std::array<float, 3> mean,
                                                std::array<float, 3> stddev) {
  return std::make_unique<NormalizeOp>(mean, stddev);
}

}  // namespace sophon::pipeline
