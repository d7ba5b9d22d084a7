#include "pipeline/extra_ops.h"

#include <algorithm>
#include <cmath>

#include "image/ops.h"
#include "util/check.h"

namespace sophon::pipeline {

namespace {

/// Scaled output dimensions for a shorter-side resize.
std::pair<int, int> resize_shorter_dims(int w, int h, int shorter_side) {
  if (w <= h) {
    const int out_h = std::max(
        1, static_cast<int>(std::lround(static_cast<double>(h) * shorter_side / w)));
    return {shorter_side, out_h};
  }
  const int out_w = std::max(
      1, static_cast<int>(std::lround(static_cast<double>(w) * shorter_side / h)));
  return {out_w, shorter_side};
}

class ResizeShorterOp final : public PreprocessOp {
 public:
  explicit ResizeShorterOp(int shorter_side) : shorter_side_(shorter_side) {
    SOPHON_CHECK(shorter_side > 0);
  }

  [[nodiscard]] OpKind kind() const override { return OpKind::kRandomResizedCrop; }
  [[nodiscard]] std::string_view name() const override { return "Resize"; }

  [[nodiscard]] SampleData apply(SampleData in, Rng& /*rng*/) const override {
    const auto* img = std::get_if<image::Image>(&in);
    SOPHON_CHECK_MSG(img != nullptr, "Resize expects a decoded image");
    const auto [w, h] = resize_shorter_dims(img->width(), img->height(), shorter_side_);
    return SampleData(image::resize_bilinear(*img, w, h));
  }

  [[nodiscard]] SampleShape out_shape(const SampleShape& in) const override {
    SOPHON_CHECK(in.repr == Repr::kImage);
    const auto [w, h] = resize_shorter_dims(in.width, in.height, shorter_side_);
    SampleShape out = in;
    out.width = w;
    out.height = h;
    out.bytes = out.byte_size();
    return out;
  }

  [[nodiscard]] Seconds cost(const SampleShape& in, const CostModel& model) const override {
    const auto& coeffs = model.coefficients();
    const auto out = out_shape(in);
    // Reads the whole source, writes the scaled output.
    return Seconds::nanos(coeffs.crop_ns_per_src_pixel * static_cast<double>(in.pixel_count()) +
                          coeffs.resize_ns_per_out_pixel *
                              static_cast<double>(out.pixel_count())) +
           Seconds::nanos(coeffs.per_op_overhead_ns);
  }

 private:
  int shorter_side_;
};

class CenterCropOp final : public PreprocessOp {
 public:
  explicit CenterCropOp(int size) : size_(size) { SOPHON_CHECK(size > 0); }

  [[nodiscard]] OpKind kind() const override { return OpKind::kRandomResizedCrop; }
  [[nodiscard]] std::string_view name() const override { return "CenterCrop"; }

  [[nodiscard]] SampleData apply(SampleData in, Rng& /*rng*/) const override {
    const auto* img = std::get_if<image::Image>(&in);
    SOPHON_CHECK_MSG(img != nullptr, "CenterCrop expects a decoded image");
    const int w = std::min(size_, img->width());
    const int h = std::min(size_, img->height());
    return SampleData(
        image::crop(*img, {(img->width() - w) / 2, (img->height() - h) / 2, w, h}));
  }

  [[nodiscard]] SampleShape out_shape(const SampleShape& in) const override {
    SOPHON_CHECK(in.repr == Repr::kImage);
    SampleShape out = in;
    out.width = std::min(size_, in.width);
    out.height = std::min(size_, in.height);
    out.bytes = out.byte_size();
    return out;
  }

  [[nodiscard]] Seconds cost(const SampleShape& in, const CostModel& model) const override {
    const auto& coeffs = model.coefficients();
    const auto out = out_shape(in);
    return Seconds::nanos(coeffs.crop_ns_per_src_pixel *
                          static_cast<double>(out.pixel_count()) * in.channels) +
           Seconds::nanos(coeffs.per_op_overhead_ns);
  }

 private:
  int size_;
};

class ColorJitterOp final : public PreprocessOp {
 public:
  ColorJitterOp(double brightness, double contrast)
      : brightness_(brightness), contrast_(contrast) {
    SOPHON_CHECK(brightness >= 0.0 && brightness < 1.0);
    SOPHON_CHECK(contrast >= 0.0 && contrast < 1.0);
  }

  [[nodiscard]] OpKind kind() const override { return OpKind::kRandomHorizontalFlip; }
  [[nodiscard]] std::string_view name() const override { return "ColorJitter"; }
  [[nodiscard]] bool is_random() const override { return true; }

  [[nodiscard]] SampleData apply(SampleData in, Rng& rng) const override {
    auto* img = std::get_if<image::Image>(&in);
    SOPHON_CHECK_MSG(img != nullptr, "ColorJitter expects a decoded image");
    const double b = rng.uniform(1.0 - brightness_, 1.0 + brightness_);
    const double c = rng.uniform(1.0 - contrast_, 1.0 + contrast_);
    // x -> (x - 128) * contrast + 128, then * brightness — clamped.
    for (auto& px : img->data()) {
      const double centered = (static_cast<double>(px) - 128.0) * c + 128.0;
      px = static_cast<std::uint8_t>(std::clamp(centered * b, 0.0, 255.0));
    }
    return in;
  }

  [[nodiscard]] SampleShape out_shape(const SampleShape& in) const override {
    SOPHON_CHECK(in.repr == Repr::kImage);
    return in;
  }

  [[nodiscard]] Seconds cost(const SampleShape& in, const CostModel& model) const override {
    const auto& coeffs = model.coefficients();
    // Two multiply-adds per channel sample — comparable to normalize.
    return Seconds::nanos(coeffs.normalize_ns_per_element *
                          static_cast<double>(in.pixel_count()) * in.channels) +
           Seconds::nanos(coeffs.per_op_overhead_ns);
  }

 private:
  double brightness_;
  double contrast_;
};

}  // namespace

std::unique_ptr<PreprocessOp> make_resize_shorter_op(int shorter_side) {
  return std::make_unique<ResizeShorterOp>(shorter_side);
}

std::unique_ptr<PreprocessOp> make_center_crop_op(int size) {
  return std::make_unique<CenterCropOp>(size);
}

std::unique_ptr<PreprocessOp> make_color_jitter_op(double brightness, double contrast) {
  return std::make_unique<ColorJitterOp>(brightness, contrast);
}

Pipeline validation_pipeline(int resize_to, int crop_to) {
  SOPHON_CHECK(resize_to >= crop_to);
  std::vector<std::unique_ptr<PreprocessOp>> ops;
  ops.push_back(make_decode_op());
  ops.push_back(make_resize_shorter_op(resize_to));
  ops.push_back(make_center_crop_op(crop_to));
  ops.push_back(make_to_tensor_op());
  ops.push_back(make_normalize_op());
  return Pipeline(std::move(ops));
}

Pipeline augmented_pipeline(int target_size) {
  std::vector<std::unique_ptr<PreprocessOp>> ops;
  ops.push_back(make_decode_op());
  ops.push_back(make_random_resized_crop_op(target_size));
  ops.push_back(make_color_jitter_op());
  ops.push_back(make_random_horizontal_flip_op());
  ops.push_back(make_to_tensor_op());
  ops.push_back(make_normalize_op());
  return Pipeline(std::move(ops));
}

}  // namespace sophon::pipeline
