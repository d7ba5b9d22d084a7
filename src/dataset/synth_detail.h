// Internals of the synthetic renderer, declared for its tests only.
//
// The renderer evaluates each row's sin and exp calls through polynomial
// row kernels. Every pixel with a channel whose value lies within
// kFallbackMargin of an integer is then recomputed by the per-pixel formula
// with std::sin and std::exp, in its original order. The kernels' errors are
// many orders of magnitude below the margin, and the uint8 truncation and
// the [0, 255] clamp can only flip at integers, so every pixel equals the
// per-pixel formula's.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dataset/synth.h"

namespace sophon::dataset::detail {

/// Distance from an integer below which a channel is recomputed exactly.
inline constexpr double kFallbackMargin = 1e-6;

/// sin_kernel's domain is [-kSinDomain, kSinDomain] and exp_kernel's is
/// [kExpDomainMin, 0]; the renderer's arguments stay below ~320 and above
/// ~-160 respectively.
inline constexpr double kSinDomain = 1024.0;
inline constexpr double kExpDomainMin = -700.0;

/// The row kernels, one argument at a time. An argument outside the
/// kernel's domain is a contract violation.
[[nodiscard]] double sin_kernel(double x);
[[nodiscard]] double exp_kernel(double x);

struct Rendered {
  image::Image image;
  std::size_t exact_pixels = 0;  // pixels the per-pixel formula recomputed
};

/// generate_synthetic_image with the given fallback margin. A margin of 0.5
/// or more sends every pixel through the per-pixel formula.
[[nodiscard]] Rendered render_with_margin(const SampleMeta& meta, std::uint64_t seed,
                                          double margin);

}  // namespace sophon::dataset::detail
