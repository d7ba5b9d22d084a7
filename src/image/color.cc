#include "image/color.h"

#include <algorithm>
#include <array>

#include "util/check.h"

namespace sophon::image {

namespace {
std::uint8_t clamp_u8(int v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}
}  // namespace

Ycbcr rgb_to_ycbcr(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  // Fixed-point BT.601: coefficients scaled by 2^16.
  const int ri = r;
  const int gi = g;
  const int bi = b;
  const int y = (19595 * ri + 38470 * gi + 7471 * bi + 32768) >> 16;
  const int cb = ((-11059 * ri - 21709 * gi + 32768 * bi + 32768) >> 16) + 128;
  const int cr = ((32768 * ri - 27439 * gi - 5329 * bi + 32768) >> 16) + 128;
  return {clamp_u8(y), clamp_u8(cb), clamp_u8(cr)};
}

namespace {
/// The chroma terms of the inverse transform, shared by every luma sample
/// of a 4:2:0 block: r = y + r, g = y - g, b = y + b (then clamped).
struct ChromaTerms {
  int r;
  int g;
  int b;
};

ChromaTerms chroma_terms(std::uint8_t cb, std::uint8_t cr) {
  const int cbi = cb - 128;
  const int cri = cr - 128;
  return {(91881 * cri + 32768) >> 16, (22554 * cbi + 46802 * cri + 32768) >> 16,
          (116130 * cbi + 32768) >> 16};
}
}  // namespace

Rgb ycbcr_to_rgb(std::uint8_t y, std::uint8_t cb, std::uint8_t cr) {
  const ChromaTerms t = chroma_terms(cb, cr);
  return {clamp_u8(y + t.r), clamp_u8(y - t.g), clamp_u8(y + t.b)};
}

YcbcrPlanes::YcbcrPlanes(int width, int height)
    : y(width, height), cb((width + 1) / 2, (height + 1) / 2), cr(cb.width(), cb.height()) {}

void split_ycbcr_420_rows(const std::uint8_t* rgb, int cy, YcbcrPlanes& planes) {
  const int w = planes.y.width();
  const int h = planes.y.height();
  const int cw = planes.cb.width();
  SOPHON_CHECK(cy >= 0 && cy < planes.cb.height());

  // Each 2x2 box's pixels go to luma and their chroma is averaged on the
  // spot. A box at an odd edge holds 1 or 2 pixels; the rounded mean
  // (sum + n / 2) / n of n = 2^shift pixels is a shift.
  const int box_rows = 2 * cy + 1 < h ? 2 : 1;
  const auto stride = static_cast<std::size_t>(w);
  std::uint8_t* luma = planes.y.data().data() + static_cast<std::size_t>(2 * cy) * stride;
  std::uint8_t* cb = planes.cb.data().data() + static_cast<std::size_t>(cy) * cw;
  std::uint8_t* cr = planes.cr.data().data() + static_cast<std::size_t>(cy) * cw;
  for (int cx = 0; cx < cw; ++cx) {
    const int box_cols = 2 * cx + 1 < w ? 2 : 1;
    int cb_sum = 0;
    int cr_sum = 0;
    for (int dy = 0; dy < box_rows; ++dy) {
      for (int dx = 0; dx < box_cols; ++dx) {
        const std::size_t px =
            static_cast<std::size_t>(dy) * stride + static_cast<std::size_t>(2 * cx + dx);
        const std::uint8_t* p = rgb + 3 * px;
        const auto ycc = rgb_to_ycbcr(p[0], p[1], p[2]);
        luma[px] = ycc.y;
        cb_sum += ycc.cb;
        cr_sum += ycc.cr;
      }
    }
    const int shift = (box_rows - 1) + (box_cols - 1);
    const int half = (1 << shift) >> 1;
    cb[cx] = static_cast<std::uint8_t>((cb_sum + half) >> shift);
    cr[cx] = static_cast<std::uint8_t>((cr_sum + half) >> shift);
  }
}

YcbcrPlanes split_ycbcr_420(const Image& rgb) {
  SOPHON_CHECK(rgb.channels() == 3);
  YcbcrPlanes planes(rgb.width(), rgb.height());
  const std::size_t pair = 2 * static_cast<std::size_t>(rgb.width()) * 3;
  for (int cy = 0; cy < planes.cb.height(); ++cy) {
    split_ycbcr_420_rows(rgb.data().data() + static_cast<std::size_t>(cy) * pair, cy, planes);
  }
  return planes;
}

namespace {
/// chroma_terms split into per-value tables, so a 4:2:0 merge pays a few
/// lookups and an add per chroma sample: r = cr_to_r[cr], b = cb_to_b[cb],
/// and g = (cb_to_g[cb] + cr_to_g[cr]) >> 16, whose sum is exactly the
/// numerator chroma_terms shifts. `clamp` saturates y + term (at least
/// -256 and below 512 for every luma and chroma value) to a byte without a
/// branch: clamp[v + kClampOffset].
constexpr int kClampOffset = 256;

struct ChromaTables {
  std::array<int, 256> cr_to_r{};
  std::array<int, 256> cb_to_b{};
  std::array<int, 256> cb_to_g{};
  std::array<int, 256> cr_to_g{};
  std::array<std::uint8_t, 768> clamp{};
};

constexpr ChromaTables make_chroma_tables() {
  ChromaTables t;
  for (int v = 0; v < 256; ++v) {
    const auto i = static_cast<std::size_t>(v);
    t.cr_to_r[i] = (91881 * (v - 128) + 32768) >> 16;
    t.cb_to_b[i] = (116130 * (v - 128) + 32768) >> 16;
    t.cb_to_g[i] = 22554 * (v - 128) + 32768;
    t.cr_to_g[i] = 46802 * (v - 128);
  }
  for (int v = 0; v < 768; ++v) {
    t.clamp[static_cast<std::size_t>(v)] =
        static_cast<std::uint8_t>(std::clamp(v - kClampOffset, 0, 255));
  }
  return t;
}

constexpr ChromaTables kChroma = make_chroma_tables();

/// Writes one RGB pixel of luma `y` under the chroma terms (r, g, b).
void put_rgb(std::uint8_t* dst, int y, int r, int g, int b) {
  const std::uint8_t* clamp = kChroma.clamp.data() + kClampOffset;
  dst[0] = clamp[y + r];
  dst[1] = clamp[y - g];
  dst[2] = clamp[y + b];
}
}  // namespace

Image merge_ycbcr_420(const Plane& y, const Plane& cb, const Plane& cr, const CropRect& region) {
  SOPHON_CHECK(region.x >= 0 && region.y >= 0 && region.width > 0 && region.height > 0);
  const auto left = static_cast<std::size_t>(region.x);
  const auto top = static_cast<std::size_t>(region.y);
  const std::size_t right = left + static_cast<std::size_t>(region.width);
  const std::size_t bottom = top + static_cast<std::size_t>(region.height);
  SOPHON_CHECK(static_cast<std::size_t>(y.width()) >= right &&
               static_cast<std::size_t>(y.height()) >= bottom);
  SOPHON_CHECK(static_cast<std::size_t>(cb.width()) >= (right + 1) / 2 &&
               static_cast<std::size_t>(cb.height()) >= (bottom + 1) / 2);
  SOPHON_CHECK(cr.width() == cb.width() && cr.height() == cb.height());
  Image out(region.width, region.height, 3);
  const auto w = static_cast<std::size_t>(y.width());
  const auto cw = static_cast<std::size_t>(cb.width());
  std::uint8_t* dst = out.data().data();
  for (std::size_t py = top; py < bottom; ++py) {
    const std::uint8_t* luma = y.data().data() + py * w;
    const std::uint8_t* blue = cb.data().data() + (py / 2) * cw;
    const std::uint8_t* red = cr.data().data() + (py / 2) * cw;
    // One chroma sample covers an even column and the odd one after it. A
    // region may start on the odd half of a pair and end on the even half.
    const auto put = [&](std::size_t px, std::size_t n) {
      const std::size_t cx = px / 2;
      const int r = kChroma.cr_to_r[red[cx]];
      const int g = (kChroma.cb_to_g[blue[cx]] + kChroma.cr_to_g[red[cx]]) >> 16;
      const int b = kChroma.cb_to_b[blue[cx]];
      put_rgb(dst, luma[px], r, g, b);
      if (n == 2) put_rgb(dst + 3, luma[px + 1], r, g, b);
      dst += 3 * n;
    };
    std::size_t px = left;
    if (px % 2 == 1) put(px++, 1);
    for (; px + 1 < right; px += 2) put(px, 2);
    if (px < right) put(px, 1);
  }
  return out;
}

}  // namespace sophon::image
