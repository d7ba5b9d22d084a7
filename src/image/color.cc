#include "image/color.h"

#include <algorithm>

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

YcbcrPlanes split_ycbcr_420(const Image& rgb) {
  SOPHON_CHECK(rgb.channels() == 3);
  const int w = rgb.width();
  const int h = rgb.height();
  const int cw = (w + 1) / 2;
  const int ch = (h + 1) / 2;
  YcbcrPlanes planes{Plane(w, h), Plane(cw, ch), Plane(cw, ch)};

  // Full-resolution pass for luma; accumulate chroma for 2x2 boxes.
  std::vector<int> cb_acc(static_cast<std::size_t>(cw) * ch, 0);
  std::vector<int> cr_acc(static_cast<std::size_t>(cw) * ch, 0);
  std::vector<int> n_acc(static_cast<std::size_t>(cw) * ch, 0);
  const std::uint8_t* src = rgb.data().data();
  std::uint8_t* luma = planes.y.data().data();
  for (int y = 0; y < h; ++y) {
    const std::size_t chroma_row = static_cast<std::size_t>(y / 2) * static_cast<std::size_t>(cw);
    for (int x = 0; x < w; ++x, src += 3) {
      const auto ycc = rgb_to_ycbcr(src[0], src[1], src[2]);
      *luma++ = ycc.y;
      const std::size_t idx = chroma_row + static_cast<std::size_t>(x / 2);
      cb_acc[idx] += ycc.cb;
      cr_acc[idx] += ycc.cr;
      ++n_acc[idx];
    }
  }
  for (std::size_t idx = 0; idx < n_acc.size(); ++idx) {
    planes.cb.data()[idx] = static_cast<std::uint8_t>((cb_acc[idx] + n_acc[idx] / 2) / n_acc[idx]);
    planes.cr.data()[idx] = static_cast<std::uint8_t>((cr_acc[idx] + n_acc[idx] / 2) / n_acc[idx]);
  }
  return planes;
}

Image merge_ycbcr_420(const Plane& y, const Plane& cb, const Plane& cr, int width, int height) {
  SOPHON_CHECK(y.width() == width && y.height() == height);
  SOPHON_CHECK(cb.width() == (width + 1) / 2 && cb.height() == (height + 1) / 2);
  SOPHON_CHECK(cr.width() == cb.width() && cr.height() == cb.height());
  Image out(width, height, 3);
  const auto w = static_cast<std::size_t>(width);
  const auto cw = static_cast<std::size_t>(cb.width());
  for (std::size_t py = 0; py < static_cast<std::size_t>(height); ++py) {
    const std::uint8_t* luma = y.data().data() + py * w;
    const std::uint8_t* blue = cb.data().data() + (py / 2) * cw;
    const std::uint8_t* red = cr.data().data() + (py / 2) * cw;
    std::uint8_t* dst = out.data().data() + py * w * 3;
    for (std::size_t px = 0; px < w; ++px) {
      const ChromaTerms t = chroma_terms(blue[px / 2], red[px / 2]);
      dst[3 * px] = clamp_u8(luma[px] + t.r);
      dst[3 * px + 1] = clamp_u8(luma[px] - t.g);
      dst[3 * px + 2] = clamp_u8(luma[px] + t.b);
    }
  }
  return out;
}

}  // namespace sophon::image
