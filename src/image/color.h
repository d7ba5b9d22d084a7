// Color-space conversion and plane resampling helpers shared by the SJPG
// codec (RGB↔YCbCr with 4:2:0 chroma subsampling, like baseline JPEG).
#pragma once

#include <cstdint>

#include "image/image.h"

namespace sophon::image {

/// Integer BT.601 RGB→YCbCr (full range, offset-binary chroma).
struct Ycbcr {
  std::uint8_t y;
  std::uint8_t cb;
  std::uint8_t cr;
};

[[nodiscard]] Ycbcr rgb_to_ycbcr(std::uint8_t r, std::uint8_t g, std::uint8_t b);

struct Rgb {
  std::uint8_t r;
  std::uint8_t g;
  std::uint8_t b;
};

[[nodiscard]] Rgb ycbcr_to_rgb(std::uint8_t y, std::uint8_t cb, std::uint8_t cr);

/// Full-resolution Y plus 2x2-box-subsampled Cb/Cr planes (ceil division
/// at odd edges).
struct YcbcrPlanes {
  /// Zero-filled planes of a width x height image.
  YcbcrPlanes(int width, int height);

  Plane y;
  Plane cb;
  Plane cr;
};

/// Split RGB rows 2cy and 2cy + 1 (only 2cy when it is the last row) into
/// their luma rows and chroma row cy of `planes`. `rgb` holds those rows
/// back to back, each as wide as `planes.y`.
void split_ycbcr_420_rows(const std::uint8_t* rgb, int cy, YcbcrPlanes& planes);

/// Split an RGB image into its 4:2:0 planes, one row pair at a time.
[[nodiscard]] YcbcrPlanes split_ycbcr_420(const Image& rgb);

/// Reassemble the `region` of an RGB image from its 4:2:0 planes
/// (nearest-neighbour chroma upsampling); the result is region-sized. The
/// planes need only reach the region's right and bottom edges: luma at
/// least x + width by y + height, chroma at least half that, rounded up.
[[nodiscard]] Image merge_ycbcr_420(const Plane& y, const Plane& cb, const Plane& cr,
                                    const CropRect& region);

/// The whole `width` x `height` image.
[[nodiscard]] inline Image merge_ycbcr_420(const Plane& y, const Plane& cb, const Plane& cr,
                                           int width, int height) {
  return merge_ycbcr_420(y, cb, cr, CropRect{0, 0, width, height});
}

}  // namespace sophon::image
