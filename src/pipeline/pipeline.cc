#include "pipeline/pipeline.h"

#include "codec/sjpg.h"
#include "image/ops.h"
#include "util/check.h"

namespace sophon::pipeline {

Pipeline::Pipeline(std::vector<std::unique_ptr<PreprocessOp>> ops) : ops_(std::move(ops)) {
  for (const auto& op : ops_) SOPHON_CHECK(op != nullptr);
}

Pipeline Pipeline::standard(int target_size) {
  std::vector<std::unique_ptr<PreprocessOp>> ops;
  ops.push_back(make_decode_op());
  ops.push_back(make_random_resized_crop_op(target_size));
  ops.push_back(make_random_horizontal_flip_op());
  ops.push_back(make_to_tensor_op());
  ops.push_back(make_normalize_op());
  return Pipeline(std::move(ops));
}

const PreprocessOp& Pipeline::op(std::size_t index) const {
  SOPHON_CHECK(index < ops_.size());
  return *ops_[index];
}

namespace {

/// Decode → RandomResizedCrop as one step. The rect depends only on the
/// image's dimensions, so drawing it from the header consumes `crop_rng`
/// exactly as the crop op does; the region's pixels equal the whole
/// decode's, and resampling all of them is resampling that rect of the
/// whole image.
SampleData decode_resized_crop(SampleData sample, const DecodeOp& decode,
                               const RandomResizedCropOp& crop, Rng& crop_rng,
                               obs::SpanCategory span_category) {
  image::Image region;
  {
    obs::Span span(span_category, decode.name());
    const auto* blob = std::get_if<EncodedBlob>(&sample);
    SOPHON_CHECK_MSG(blob != nullptr, "Decode expects an encoded blob");
    const auto header = codec::sjpg_peek(blob->bytes);
    SOPHON_CHECK_MSG(header.has_value(), "corrupt SJPG payload");
    const auto rect = image::sample_resized_crop_rect(header->width, header->height, crop_rng);
    auto decoded = codec::sjpg_decode(blob->bytes, rect);
    SOPHON_CHECK_MSG(decoded.has_value(), "corrupt SJPG payload");
    region = std::move(*decoded);
  }
  obs::Span span(span_category, crop.name());
  return image::resize_bilinear(region, crop.target_size(), crop.target_size());
}

/// ToTensor → Normalize as one pass over the image.
SampleData normalized_tensor(SampleData sample, const ToTensorOp& to_tensor,
                             const NormalizeOp& normalize, obs::SpanCategory span_category) {
  {
    obs::Span span(span_category, to_tensor.name());
    const auto* img = std::get_if<image::Image>(&sample);
    SOPHON_CHECK_MSG(img != nullptr, "ToTensor expects a decoded image");
    sample = image::to_normalized_tensor(*img, normalize.mean(), normalize.stddev());
  }
  const obs::Span span(span_category, normalize.name());
  return sample;
}

}  // namespace

SampleData Pipeline::run_seeded(SampleData sample, std::size_t from_stage, std::size_t to_stage,
                                std::uint64_t stream_seed,
                                obs::SpanCategory span_category) const {
  SOPHON_CHECK(from_stage <= to_stage && to_stage <= ops_.size());
  const auto op_rng = [stream_seed](std::size_t i) {
    return Rng(derive_seed(stream_seed, static_cast<std::uint64_t>(i)));
  };
  for (std::size_t i = from_stage; i < to_stage; ++i) {
    const PreprocessOp* op = ops_[i].get();
    const PreprocessOp* next = i + 1 < to_stage ? ops_[i + 1].get() : nullptr;
    const auto* decode = dynamic_cast<const DecodeOp*>(op);
    const auto* crop = dynamic_cast<const RandomResizedCropOp*>(next);
    const auto* to_tensor = dynamic_cast<const ToTensorOp*>(op);
    const auto* normalize = dynamic_cast<const NormalizeOp*>(next);
    if (decode != nullptr && crop != nullptr) {
      Rng crop_rng = op_rng(++i);
      sample = decode_resized_crop(std::move(sample), *decode, *crop, crop_rng, span_category);
    } else if (to_tensor != nullptr && normalize != nullptr) {
      ++i;
      sample = normalized_tensor(std::move(sample), *to_tensor, *normalize, span_category);
    } else {
      obs::Span span(span_category, op->name());
      Rng rng = op_rng(i);
      sample = op->apply(std::move(sample), rng);
    }
  }
  return sample;
}

SampleShape Pipeline::shape_at(const SampleShape& raw, std::size_t stage) const {
  SOPHON_CHECK(stage <= ops_.size());
  SampleShape shape = raw;
  for (std::size_t i = 0; i < stage; ++i) shape = ops_[i]->out_shape(shape);
  return shape;
}

Seconds Pipeline::op_cost(const SampleShape& raw, std::size_t index,
                          const CostModel& model) const {
  SOPHON_CHECK(index < ops_.size());
  return ops_[index]->cost(shape_at(raw, index), model);
}

Seconds Pipeline::prefix_cost(const SampleShape& raw, std::size_t k,
                              const CostModel& model) const {
  SOPHON_CHECK(k <= ops_.size());
  Seconds total;
  SampleShape shape = raw;
  for (std::size_t i = 0; i < k; ++i) {
    total += ops_[i]->cost(shape, model);
    shape = ops_[i]->out_shape(shape);
  }
  return total;
}

Seconds Pipeline::suffix_cost(const SampleShape& raw, std::size_t k,
                              const CostModel& model) const {
  SOPHON_CHECK(k <= ops_.size());
  Seconds total;
  SampleShape shape = shape_at(raw, k);
  for (std::size_t i = k; i < ops_.size(); ++i) {
    total += ops_[i]->cost(shape, model);
    shape = ops_[i]->out_shape(shape);
  }
  return total;
}

std::vector<Pipeline::StagePoint> Pipeline::analytic_trace(const SampleShape& raw,
                                                           const CostModel& model) const {
  std::vector<StagePoint> trace;
  trace.reserve(ops_.size() + 1);
  SampleShape shape = raw;
  trace.push_back({shape.byte_size(), Seconds(0.0)});
  for (const auto& op : ops_) {
    const Seconds cost = op->cost(shape, model);
    shape = op->out_shape(shape);
    trace.push_back({shape.byte_size(), cost});
  }
  return trace;
}

std::size_t Pipeline::min_size_stage(const SampleShape& raw) const {
  SampleShape shape = raw;
  Bytes best = shape.byte_size();
  std::size_t best_stage = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    shape = ops_[i]->out_shape(shape);
    if (shape.byte_size() < best) {
      best = shape.byte_size();
      best_stage = i + 1;
    }
  }
  return best_stage;
}

std::size_t Pipeline::deterministic_prefix() const {
  std::size_t prefix = 0;
  while (prefix < ops_.size() && !ops_[prefix]->is_random()) ++prefix;
  return prefix;
}

}  // namespace sophon::pipeline
