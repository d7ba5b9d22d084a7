// Pixel-level transform kernels backing the preprocessing pipeline ops.
// These are the real computations (crop, bilinear resize, flip, tensor
// conversion, normalisation) — the same semantics as torchvision's
// transforms, which the paper's workload uses.
#pragma once

#include <array>

#include "image/image.h"
#include "image/tensor.h"
#include "util/rng.h"

namespace sophon::image {

/// Extract a sub-image. The rectangle must lie fully inside `src`.
[[nodiscard]] Image crop(const Image& src, const CropRect& rect);

/// Bilinear resize to (out_width, out_height) with half-pixel centers
/// (align_corners = false), matching PIL/torchvision behaviour closely.
[[nodiscard]] Image resize_bilinear(const Image& src, int out_width, int out_height);

/// Mirror the image around its vertical axis, in place: pass an image the
/// caller no longer needs by std::move and nothing is allocated.
[[nodiscard]] Image horizontal_flip(Image img);

/// Sample the RandomResizedCrop geometry exactly as torchvision does:
/// area scale in [scale_lo, scale_hi] of the source, log-uniform aspect
/// ratio in [3/4, 4/3], ten attempts then a center-crop fallback.
[[nodiscard]] CropRect sample_resized_crop_rect(int src_width, int src_height, Rng& rng,
                                                double scale_lo = 0.08, double scale_hi = 1.0);

/// Crop `rect` then bilinear-resize to (size x size) — RandomResizedCrop's
/// deterministic core once the geometry is fixed.
[[nodiscard]] Image resized_crop(const Image& src, const CropRect& rect, int size);

/// uint8 HWC [0,255] → float32 CHW [0,1] (torchvision ToTensor).
[[nodiscard]] Tensor to_tensor(const Image& src);

/// Per-channel (x - mean) / std in place; `mean`/`stddev` indexed by channel.
/// Channels beyond 3 are not supported (the pipeline is RGB).
void normalize(Tensor& t, const std::array<float, 3>& mean, const std::array<float, 3>& stddev);

/// to_tensor then normalize in one pass: per element the same float
/// operations in the same order, so the result is bit-identical.
[[nodiscard]] Tensor to_normalized_tensor(const Image& src, const std::array<float, 3>& mean,
                                          const std::array<float, 3>& stddev);

/// The ImageNet normalisation constants used by the paper's training script.
inline constexpr std::array<float, 3> kImagenetMean{0.485f, 0.456f, 0.406f};
inline constexpr std::array<float, 3> kImagenetStd{0.229f, 0.224f, 0.225f};

}  // namespace sophon::image
