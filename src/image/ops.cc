#include "image/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

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

Image horizontal_flip(Image img) {
  SOPHON_CHECK(!img.empty());
  const auto w = static_cast<std::size_t>(img.width());
  std::uint8_t* row = img.data().data();
  for (int y = 0; y < img.height(); ++y) {
    if (img.channels() == 1) {
      std::reverse(row, row + w);
      row += w;
      continue;
    }
    // Swap RGB triples from both ends towards the middle.
    for (std::uint8_t *lo = row, *hi = row + 3 * (w - 1); lo < hi; lo += 3, hi -= 3) {
      std::swap(lo[0], hi[0]);
      std::swap(lo[1], hi[1]);
      std::swap(lo[2], hi[2]);
    }
    row += 3 * w;
  }
  return img;
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

namespace {

constexpr float kInv255 = 1.0f / 255.0f;

/// Writes each channel of `src` as a CHW plane of `to_float(c, v)` over its
/// uint8 values v.
template <typename ToFloat>
Tensor to_tensor_with(const Image& src, ToFloat to_float) {
  SOPHON_CHECK(!src.empty());
  Tensor out(src.channels(), src.height(), src.width());
  const auto ch = static_cast<std::size_t>(src.channels());
  const std::size_t plane =
      static_cast<std::size_t>(src.width()) * static_cast<std::size_t>(src.height());
  const std::uint8_t* const pixels = src.data().data();
  for (std::size_t c = 0; c < ch; ++c) {
    float* dst = out.data().data() + c * plane;
    const std::uint8_t* from = pixels + c;
    for (std::size_t i = 0; i < plane; ++i) dst[i] = to_float(c, from[i * ch]);
  }
  return out;
}

/// Normalize's per-channel terms: the mean and the reciprocal of the std.
struct ChannelScale {
  std::array<float, 3> mean;
  std::array<float, 3> inv_std;
};

ChannelScale channel_scale(int channels, const std::array<float, 3>& mean,
                           const std::array<float, 3>& stddev) {
  SOPHON_CHECK(channels <= 3);
  ChannelScale scale{mean, {}};
  for (std::size_t c = 0; c < static_cast<std::size_t>(channels); ++c) {
    SOPHON_CHECK_MSG(stddev[c] > 0.0f, "stddev must be positive");
    scale.inv_std[c] = 1.0f / stddev[c];
  }
  return scale;
}

}  // namespace

Tensor to_tensor(const Image& src) {
  return to_tensor_with(
      src, [](std::size_t, std::uint8_t v) { return static_cast<float>(v) * kInv255; });
}

void normalize(Tensor& t, const std::array<float, 3>& mean, const std::array<float, 3>& stddev) {
  const ChannelScale scale = channel_scale(t.channels(), mean, stddev);
  const std::size_t plane =
      static_cast<std::size_t>(t.width()) * static_cast<std::size_t>(t.height());
  for (std::size_t c = 0; c < static_cast<std::size_t>(t.channels()); ++c) {
    const float m = scale.mean[c];
    const float inv_s = scale.inv_std[c];
    float* values = t.data().data() + c * plane;
    for (std::size_t i = 0; i < plane; ++i) values[i] = (values[i] - m) * inv_s;
  }
}

Tensor to_normalized_tensor(const Image& src, const std::array<float, 3>& mean,
                            const std::array<float, 3>& stddev) {
  const ChannelScale scale = channel_scale(src.channels(), mean, stddev);
  return to_tensor_with(src, [&scale](std::size_t c, std::uint8_t v) {
    const float value = static_cast<float>(v) * kInv255;
    return (value - scale.mean[c]) * scale.inv_std[c];
  });
}

}  // namespace sophon::image
