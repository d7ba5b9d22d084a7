#include "image/ops.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace sophon::image {

namespace {

void check_rect_inside(const Image& src, const CropRect& rect) {
  SOPHON_CHECK(rect.width > 0 && rect.height > 0);
  SOPHON_CHECK(rect.x >= 0 && rect.y >= 0);
  SOPHON_CHECK(rect.x + rect.width <= src.width());
  SOPHON_CHECK(rect.y + rect.height <= src.height());
}

/// Bilinear resample of the source rectangle `rect` to (out_width,
/// out_height) with half-pixel centers, reading the rectangle in place. The
/// arithmetic is that of resizing a materialised crop of `rect`.
Image resample_rect(const Image& src, const CropRect& rect, int out_width, int out_height) {
  SOPHON_CHECK(out_width > 0 && out_height > 0);
  Image out(out_width, out_height, src.channels());
  const auto ch = static_cast<std::size_t>(src.channels());
  const double sx = static_cast<double>(rect.width) / out_width;
  const double sy = static_cast<double>(rect.height) / out_height;

  // Column taps are the same for every output row: source byte offsets of
  // the two neighbours (relative to the row start) and the blend weight.
  struct Tap {
    std::size_t x0;
    std::size_t x1;
    double wx;
  };
  std::vector<Tap> taps(static_cast<std::size_t>(out_width));
  for (int ox = 0; ox < out_width; ++ox) {
    const double fx = (ox + 0.5) * sx - 0.5;
    const int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, rect.width - 1);
    const int x1 = std::min(x0 + 1, rect.width - 1);
    taps[static_cast<std::size_t>(ox)] = {static_cast<std::size_t>(rect.x + x0) * ch,
                                          static_cast<std::size_t>(rect.x + x1) * ch,
                                          std::clamp(fx - x0, 0.0, 1.0)};
  }

  const std::size_t stride = static_cast<std::size_t>(src.width()) * ch;
  const std::uint8_t* const pixels = src.data().data();
  std::uint8_t* dst = out.data().data();
  for (int oy = 0; oy < out_height; ++oy) {
    const double fy = (oy + 0.5) * sy - 0.5;
    const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, rect.height - 1);
    const int y1 = std::min(y0 + 1, rect.height - 1);
    const double wy = std::clamp(fy - y0, 0.0, 1.0);
    const std::uint8_t* row0 = pixels + static_cast<std::size_t>(rect.y + y0) * stride;
    const std::uint8_t* row1 = pixels + static_cast<std::size_t>(rect.y + y1) * stride;
    for (const Tap& tap : taps) {
      for (std::size_t c = 0; c < ch; ++c) {
        const double top = row0[tap.x0 + c] * (1.0 - tap.wx) + row0[tap.x1 + c] * tap.wx;
        const double bot = row1[tap.x0 + c] * (1.0 - tap.wx) + row1[tap.x1 + c] * tap.wx;
        const double v = top * (1.0 - wy) + bot * wy;
        *dst++ = static_cast<std::uint8_t>(std::clamp(v + 0.5, 0.0, 255.0));
      }
    }
  }
  return out;
}

}  // namespace

Image crop(const Image& src, const CropRect& rect) {
  check_rect_inside(src, rect);
  Image out(rect.width, rect.height, src.channels());
  const auto ch = static_cast<std::size_t>(src.channels());
  const std::size_t row_bytes = static_cast<std::size_t>(rect.width) * ch;
  const std::size_t stride = static_cast<std::size_t>(src.width()) * ch;
  for (int y = 0; y < rect.height; ++y) {
    const std::uint8_t* from = src.data().data() +
                               static_cast<std::size_t>(rect.y + y) * stride +
                               static_cast<std::size_t>(rect.x) * ch;
    std::copy(from, from + row_bytes, out.data().data() + static_cast<std::size_t>(y) * row_bytes);
  }
  return out;
}

Image resize_bilinear(const Image& src, int out_width, int out_height) {
  SOPHON_CHECK(!src.empty());
  return resample_rect(src, {0, 0, src.width(), src.height()}, out_width, out_height);
}

Image horizontal_flip(const Image& src) {
  SOPHON_CHECK(!src.empty());
  Image out(src.width(), src.height(), src.channels());
  const int ch = src.channels();
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      for (int c = 0; c < ch; ++c) {
        out.set(src.width() - 1 - x, y, c, src.at(x, y, c));
      }
    }
  }
  return out;
}

CropRect sample_resized_crop_rect(int src_width, int src_height, Rng& rng, double scale_lo,
                                  double scale_hi) {
  SOPHON_CHECK(src_width > 0 && src_height > 0);
  SOPHON_CHECK(scale_lo > 0.0 && scale_lo <= scale_hi && scale_hi <= 1.0);
  const double area = static_cast<double>(src_width) * src_height;
  constexpr double kLogRatioLo = -0.28768207245178085;  // log(3/4)
  constexpr double kLogRatioHi = 0.28768207245178085;   // log(4/3)
  for (int attempt = 0; attempt < 10; ++attempt) {
    const double target_area = area * rng.uniform(scale_lo, scale_hi);
    const double aspect = std::exp(rng.uniform(kLogRatioLo, kLogRatioHi));
    const int w = static_cast<int>(std::lround(std::sqrt(target_area * aspect)));
    const int h = static_cast<int>(std::lround(std::sqrt(target_area / aspect)));
    if (w > 0 && h > 0 && w <= src_width && h <= src_height) {
      const int x = static_cast<int>(rng.uniform_int(0, src_width - w));
      const int y = static_cast<int>(rng.uniform_int(0, src_height - h));
      return {x, y, w, h};
    }
  }
  // Fallback: central crop at the clamped aspect ratio (torchvision's rule).
  const double in_ratio = static_cast<double>(src_width) / src_height;
  int w;
  int h;
  if (in_ratio < 3.0 / 4.0) {
    w = src_width;
    h = static_cast<int>(std::lround(w / (3.0 / 4.0)));
  } else if (in_ratio > 4.0 / 3.0) {
    h = src_height;
    w = static_cast<int>(std::lround(h * (4.0 / 3.0)));
  } else {
    w = src_width;
    h = src_height;
  }
  w = std::min(w, src_width);
  h = std::min(h, src_height);
  return {(src_width - w) / 2, (src_height - h) / 2, w, h};
}

Image resized_crop(const Image& src, const CropRect& rect, int size) {
  check_rect_inside(src, rect);
  return resample_rect(src, rect, size, size);
}

Tensor to_tensor(const Image& src) {
  SOPHON_CHECK(!src.empty());
  Tensor out(src.channels(), src.height(), src.width());
  constexpr float kInv255 = 1.0f / 255.0f;
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < src.height(); ++y) {
      for (int x = 0; x < src.width(); ++x) {
        out.set(c, y, x, static_cast<float>(src.at(x, y, c)) * kInv255);
      }
    }
  }
  return out;
}

void normalize(Tensor& t, const std::array<float, 3>& mean, const std::array<float, 3>& stddev) {
  SOPHON_CHECK(t.channels() <= 3);
  for (int c = 0; c < t.channels(); ++c) {
    SOPHON_CHECK_MSG(stddev[static_cast<std::size_t>(c)] > 0.0f, "stddev must be positive");
    const float m = mean[static_cast<std::size_t>(c)];
    const float inv_s = 1.0f / stddev[static_cast<std::size_t>(c)];
    for (int y = 0; y < t.height(); ++y) {
      for (int x = 0; x < t.width(); ++x) {
        t.set(c, y, x, (t.at(c, y, x) - m) * inv_s);
      }
    }
  }
}

}  // namespace sophon::image
