// SJPG — a from-scratch lossy image codec standing in for JPEG.
//
// The paper's datasets are JPEG files; what SOPHON cares about is that a
// compressed sample can be much smaller *or* larger than its decoded and
// cropped forms, with a ratio that varies per image. SJPG reproduces that:
//   * RGB → YCbCr with 4:2:0 chroma subsampling (like baseline JPEG),
//   * closed-loop DPCM with per-row adaptive predictors (MED/left/up/avg,
//     PNG-style, chosen by trial against the evolving reconstruction),
//   * quality-controlled uniform quantisation of residuals,
//   * zero-run RLE + canonical Huffman entropy coding per plane.
// Smooth images compress 10–30x; noisy ones barely 1.5x — the same spread a
// JPEG corpus shows, which is what drives the paper's 76 % / 26 % split.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "image/color.h"
#include "image/image.h"

namespace sophon::codec {

/// Fixed-size container header at the front of every SJPG blob.
struct SjpgHeader {
  int width = 0;
  int height = 0;
  int channels = 0;
  int quality = 0;  // 1 (coarsest) .. 100 (finest quantisation)
};

/// Encode an image at the given quality (1..100). Deterministic: identical
/// inputs yield identical bytes. An RGB image is split into its 4:2:0
/// planes, then encoded as the overload below does.
[[nodiscard]] std::vector<std::uint8_t> sjpg_encode(const image::Image& img, int quality);

/// Encode an RGB image given as its 4:2:0 planes (`image::split_ycbcr_420`),
/// so a producer that builds the planes row by row needs no RGB frame.
[[nodiscard]] std::vector<std::uint8_t> sjpg_encode(const image::YcbcrPlanes& planes,
                                                    int quality);

/// Decode an SJPG blob, or only its `region` (the whole image when none is
/// given): the result is region-sized and its pixels are exactly those of
/// that region of the whole decode. The region must lie inside the image
/// (see `sjpg_peek`). Returns nullopt on a malformed stream (bad magic,
/// truncated payload, corrupt entropy data); a region decode rejects
/// exactly the streams a whole decode does, because every plane is
/// entropy-decoded to its end and only the pixel reconstruction stops at
/// the region's right and bottom edges.
[[nodiscard]] std::optional<image::Image> sjpg_decode(
    std::span<const std::uint8_t> blob, std::optional<image::CropRect> region = std::nullopt);

/// Parse only the header — O(1); used by the storage server to answer size
/// queries without decoding.
[[nodiscard]] std::optional<SjpgHeader> sjpg_peek(std::span<const std::uint8_t> blob);

/// LOCO-I (JPEG-LS) median edge detector over the left (a), up (b) and
/// up-left (c) neighbours: the predictor of SJPG's default row mode, shared
/// by encoder and decoder. Written as a clamp of the planar prediction,
/// which equals LOCO-I's three-way branch on every input. The bounds come
/// from a sign mask rather than std::min/max of a and b: GCC -O2 turned
/// those into a branch on a < b in the encoder's four-trial loop, which
/// mispredicts on textured rows. Exposed so tests can check it on every
/// input.
[[nodiscard]] inline int med_predict(int a, int b, int c) {
  const int d = a - b;
  const int swap = d & (d >> 31);  // a - b when a < b, else 0
  const int lo = b + swap;         // min(a, b)
  const int hi = a - swap;         // max(a, b)
  return std::max(lo, std::min(hi, a + b - c));
}

/// Quantisation step used for the luma plane at a quality level; chroma uses
/// twice this step. Exposed for tests that reason about rate/distortion.
[[nodiscard]] int sjpg_quant_step(int quality);

}  // namespace sophon::codec
