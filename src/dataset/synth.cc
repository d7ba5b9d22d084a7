#include "dataset/synth.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "codec/sjpg.h"
#include "dataset/synth_detail.h"
#include "image/color.h"
#include "util/check.h"

// The kernels round with the 0x1.8p52 shifter, and the fallback must repeat
// the per-pixel formula's arithmetic exactly: both need IEEE round-to-nearest
// arithmetic that the compiler does not reassociate.
#if defined(__FAST_MATH__)
#error "dataset/synth.cc must not be built with -ffast-math"
#endif

namespace sophon::dataset {

namespace {

constexpr double kTwoPi = 6.28318530717958647692;

// ---- Row kernels --------------------------------------------------------

// Two doubles, the width of the baseline x86-64 (SSE2) vector registers, so
// the row loops run packed without -march or runtime dispatch.
using F64x2 = double __attribute__((vector_size(16)));
using U64x2 = std::uint64_t __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 2;

// Adding 1.5 * 2^52 rounds a double of magnitude below 2^51 to the nearest
// integer k and leaves 2^51 + k in the sum's low mantissa bits.
constexpr double kRoundShift = 0x1.8p52;

/// sin(x) for |x| <= kSinDomain, elementwise for F = double or F64x2
/// (U the same-sized unsigned type): x = k pi + r with |r| <= pi/2, pi in
/// two parts (k * kPiHi is exact), an odd Taylor polynomial to degree 19 in
/// r, and the sign (-1)^k taken from k's low bit.
template <class F, class U>
F sin_poly(F x) {
  constexpr double kInvPi = 0x1.45f306dc9c883p-2;
  constexpr double kPiHi = 0x1.921fb5p+1;
  constexpr double kPiLo = 0x1.110b4611a6263p-25;
  const F shifted = x * kInvPi + kRoundShift;
  const F k = shifted - kRoundShift;
  const F r = (x - k * kPiHi) - k * kPiLo;
  const F r2 = r * r;
  F p = -0x1.2f49b46814157p-57 * r2 + 0x1.952c77030ad4ap-49;  // -1/19!, 1/17!
  p = p * r2 - 0x1.ae7f3e733b81fp-41;                          // 1/15!
  p = p * r2 + 0x1.6124613a86d09p-33;                          // 1/13!
  p = p * r2 - 0x1.ae64567f544e4p-26;                          // 1/11!
  p = p * r2 + 0x1.71de3a556c734p-19;                          // 1/9!
  p = p * r2 - 0x1.a01a01a01a01ap-13;                          // 1/7!
  p = p * r2 + 0x1.1111111111111p-7;                           // 1/5!
  p = p * r2 - 0x1.5555555555555p-3;                           // 1/3!
  const F s = r + r * r2 * p;
  return std::bit_cast<F>(std::bit_cast<U>(s) ^ (std::bit_cast<U>(shifted) << 63));
}

/// exp(x) for kExpDomainMin <= x <= 0, elementwise as sin_poly: x = k ln2 + r
/// with |r| <= ln2 / 2 (ln2 in two parts), a Taylor polynomial to degree 12
/// in r, and 2^k written into the exponent bits (normal for k >= -1022).
template <class F, class U>
F exp_poly(F x) {
  constexpr double kLog2e = 0x1.71547652b82fep+0;
  constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  const F shifted = x * kLog2e + kRoundShift;
  const F k = shifted - kRoundShift;
  const F r = (x - k * kLn2Hi) - k * kLn2Lo;
  F p = 0x1.1eed8eff8d898p-29 * r + 0x1.ae64567f544e4p-26;  // 1/12!, 1/11!
  p = p * r + 0x1.27e4fb7789f5cp-22;                        // 1/10!
  p = p * r + 0x1.71de3a556c734p-19;                        // 1/9!
  p = p * r + 0x1.a01a01a01a01ap-16;                        // 1/8!
  p = p * r + 0x1.a01a01a01a01ap-13;                        // 1/7!
  p = p * r + 0x1.6c16c16c16c17p-10;                        // 1/6!
  p = p * r + 0x1.1111111111111p-7;                         // 1/5!
  p = p * r + 0x1.5555555555555p-5;                         // 1/4!
  p = p * r + 0x1.5555555555555p-3;                         // 1/3!
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  const U biased_k = std::bit_cast<U>(shifted) - std::bit_cast<std::uint64_t>(kRoundShift) +
                     std::uint64_t{1023};
  return p * std::bit_cast<F>(biased_k << 52);
}

F64x2 load(const double* p) {
  F64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, F64x2 v) { std::memcpy(p, &v, sizeof v); }

struct Wave {
  double fx;
  double fy;
  double phase;
  double amplitude;
};

struct Blob {
  double cx;
  double cy;
  double radius;
  std::array<double, 3> color;
};

/// structure[x] += amplitude * sin((wave_u[x] + wave_v) + phase), the
/// per-pixel formula's argument, for x < n (a multiple of kLanes).
void add_wave_row(const Wave& wave, const double* wave_u, double wave_v, double* structure,
                  std::size_t n) {
  for (std::size_t x = 0; x < n; x += kLanes) {
    const F64x2 s = sin_poly<F64x2, U64x2>((load(wave_u + x) + wave_v) + wave.phase);
    store(structure + x, load(structure + x) + wave.amplitude * s);
  }
}

/// delta[c][x] += color[c] * exp(-(dx2[x] + dy2) / two_r2) for x < n (a
/// multiple of kLanes).
void add_blob_row(const Blob& blob, const double* dx2, double dy2, double two_r2,
                  const std::array<double*, 3>& delta, std::size_t n) {
  for (std::size_t x = 0; x < n; x += kLanes) {
    const F64x2 falloff = exp_poly<F64x2, U64x2>(-(load(dx2 + x) + dy2) / two_r2);
    for (std::size_t c = 0; c < delta.size(); ++c) {
      store(delta[c] + x, load(delta[c] + x) + blob.color[c] * falloff);
    }
  }
}

/// Renders the image `meta` describes top to bottom into `rows`, which
/// holds `capacity` RGB rows: row y goes to slot y % capacity. Each time the
/// slots fill, and after the last row, `flush(first_row)` gets the rows just
/// rendered, from row first_row in slot 0. Returns how many pixels the
/// per-pixel formula recomputed: those with a channel within `margin` of an
/// integer.
template <typename Flush>
std::size_t render_rows(const SampleMeta& meta, std::uint64_t seed, double margin,
                        std::uint8_t* rows, int capacity, Flush&& flush) {
  const int w = meta.raw.width;
  const int h = meta.raw.height;
  SOPHON_CHECK(w > 0 && h > 0);
  Rng rng(derive_seed(derive_seed(seed, "synth"), meta.id));

  // Base gradient endpoints per channel.
  std::array<double, 3> lo{};
  std::array<double, 3> hi{};
  for (int c = 0; c < 3; ++c) {
    lo[static_cast<std::size_t>(c)] = rng.uniform(40.0, 140.0);
    hi[static_cast<std::size_t>(c)] = rng.uniform(90.0, 220.0);
  }
  const double grad_angle = rng.uniform(0.0, kTwoPi);
  const double gx = std::cos(grad_angle);
  const double gy = std::sin(grad_angle);

  // Plasma waves: frequency rises with texture.
  const int wave_count = 2 + static_cast<int>(meta.texture * 4.0);
  std::vector<Wave> waves;
  waves.reserve(static_cast<std::size_t>(wave_count));
  for (int i = 0; i < wave_count; ++i) {
    const double freq_scale = 2.0 + meta.texture * 22.0;
    waves.push_back({rng.uniform(0.5, freq_scale), rng.uniform(0.5, freq_scale),
                     rng.uniform(0.0, kTwoPi), rng.uniform(6.0, 22.0)});
  }

  // A few soft blobs give the image large-scale structure.
  const int blob_count = static_cast<int>(rng.uniform_int(2, 5));
  std::vector<Blob> blobs;
  blobs.reserve(static_cast<std::size_t>(blob_count));
  for (int i = 0; i < blob_count; ++i) {
    blobs.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.08, 0.35),
                     {rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)}});
  }

  const double noise_amp = 1.5 + 90.0 * meta.texture * meta.texture;

  // Row and column invariants, each computed by the expression the pixel
  // formula spells out, in the same order: every sin and exp sees the same
  // argument it would see written per pixel. wave_u and blob_dx2 hold one
  // row of `stride` columns per wave and blob; the padding columns stay 0.
  const auto cols = static_cast<std::size_t>(w);
  const std::size_t stride = (cols + kLanes - 1) / kLanes * kLanes;
  std::vector<double> grad_u(cols);                     // gx * (u - 0.5)
  std::vector<double> wave_u(stride * waves.size());    // fx * u * 2pi, [i * stride + x]
  std::vector<double> blob_dx2(stride * blobs.size());  // dx * dx, [j * stride + x]
  for (std::size_t x = 0; x < cols; ++x) {
    const double u = static_cast<double>(x) / w;
    grad_u[x] = gx * (u - 0.5);
    for (std::size_t i = 0; i < waves.size(); ++i) {
      wave_u[i * stride + x] = waves[i].fx * u * kTwoPi;
    }
    for (std::size_t j = 0; j < blobs.size(); ++j) {
      const double dx = u - blobs[j].cx;
      blob_dx2[j * stride + x] = dx * dx;
    }
  }
  std::vector<double> two_r2(blobs.size());
  for (std::size_t j = 0; j < blobs.size(); ++j) {
    two_r2[j] = 2.0 * blobs[j].radius * blobs[j].radius;
  }
  std::array<double, 3> span{};
  for (std::size_t c = 0; c < span.size(); ++c) span[c] = hi[c] - lo[c];

  // The kernels' domains hold every argument: u, v < 1 bound a wave's by
  // 2 pi (fx + fy) + phase, and dx^2 + dy^2 < 2 bounds a blob's by
  // -2 / two_r2.
  for (const Wave& wave : waves) {
    SOPHON_CHECK(kTwoPi * (wave.fx + wave.fy) + wave.phase < detail::kSinDomain);
  }
  for (const double r2 : two_r2) SOPHON_CHECK(-2.0 / r2 > detail::kExpDomainMin);

  std::vector<double> wave_v(waves.size());
  std::vector<double> blob_dy2(blobs.size());

  // The per-pixel formula, with std::sin and std::exp in its original
  // order: what the row kernels reproduce, and their only fallback.
  const auto exact_pixel = [&](std::size_t x, double t, const double* noise, std::uint8_t* px) {
    double structure = 0.0;
    for (std::size_t i = 0; i < waves.size(); ++i) {
      structure +=
          waves[i].amplitude * std::sin(wave_u[i * stride + x] + wave_v[i] + waves[i].phase);
    }
    std::array<double, 3> blob_delta{};
    for (std::size_t j = 0; j < blobs.size(); ++j) {
      const double falloff = std::exp(-(blob_dx2[j * stride + x] + blob_dy2[j]) / two_r2[j]);
      for (std::size_t c = 0; c < blob_delta.size(); ++c) {
        blob_delta[c] += blobs[j].color[c] * falloff;
      }
    }
    for (std::size_t c = 0; c < 3; ++c) {
      const double base = lo[c] + span[c] * t;
      const double value = base + structure + blob_delta[c] + noise[c];
      px[c] = static_cast<std::uint8_t>(std::clamp(value, 0.0, 255.0));
    }
  };

  std::vector<double> row_structure(stride);  // the waves' sum per column
  std::vector<double> row_blobs(3 * stride);  // the blobs' sum, [c * stride + x]
  const std::array<double*, 3> row_delta{row_blobs.data(), row_blobs.data() + stride,
                                         row_blobs.data() + 2 * stride};
  std::vector<double> row_noise(3 * cols);  // [x * 3 + c]
  std::size_t exact = 0;
  int first_row = 0;
  for (int y = 0; y < h; ++y) {
    if (y - first_row == capacity) {
      flush(first_row);
      first_row = y;
    }
    std::uint8_t* pixels = rows + static_cast<std::size_t>(y - first_row) * cols * 3;
    const double v = static_cast<double>(y) / h;
    const double grad_v = gy * (v - 0.5);
    for (std::size_t i = 0; i < waves.size(); ++i) wave_v[i] = waves[i].fy * v * kTwoPi;
    for (std::size_t j = 0; j < blobs.size(); ++j) {
      const double dy = v - blobs[j].cy;
      blob_dy2[j] = dy * dy;
    }

    // Waves and blobs accumulate in the per-pixel formula's order, and the
    // noise stream runs pixel by pixel, then channel by channel.
    std::fill(row_structure.begin(), row_structure.end(), 0.0);
    for (std::size_t i = 0; i < waves.size(); ++i) {
      add_wave_row(waves[i], wave_u.data() + i * stride, wave_v[i], row_structure.data(), stride);
    }
    std::fill(row_blobs.begin(), row_blobs.end(), 0.0);
    for (std::size_t j = 0; j < blobs.size(); ++j) {
      add_blob_row(blobs[j], blob_dx2.data() + j * stride, blob_dy2[j], two_r2[j], row_delta,
                   stride);
    }
    for (double& noise : row_noise) noise = noise_amp * (rng.uniform() - 0.5);

    for (std::size_t x = 0; x < cols; ++x) {
      const double t = std::clamp(0.5 + 0.5 * (grad_u[x] + grad_v) * 2.0, 0.0, 1.0);
      const double* noise = row_noise.data() + 3 * x;
      std::uint8_t* px = pixels + 3 * x;
      std::array<double, 3> value{};
      bool near_integer = false;
      for (std::size_t c = 0; c < 3; ++c) {
        const double base = lo[c] + span[c] * t;
        value[c] = base + row_structure[x] + row_delta[c][x] + noise[c];
        const double nearest = (value[c] + kRoundShift) - kRoundShift;
        near_integer |= std::abs(value[c] - nearest) < margin;
      }
      if (near_integer) {
        exact_pixel(x, t, noise, px);
        ++exact;
        continue;
      }
      for (std::size_t c = 0; c < 3; ++c) {
        px[c] = static_cast<std::uint8_t>(std::clamp(value[c], 0.0, 255.0));
      }
    }
  }
  flush(first_row);
  return exact;
}

}  // namespace

namespace detail {

double sin_kernel(double x) {
  SOPHON_CHECK(std::abs(x) <= kSinDomain);
  return sin_poly<double, std::uint64_t>(x);
}

double exp_kernel(double x) {
  SOPHON_CHECK(x >= kExpDomainMin && x <= 0.0);
  return exp_poly<double, std::uint64_t>(x);
}

Rendered render_with_margin(const SampleMeta& meta, std::uint64_t seed, double margin) {
  Rendered out{image::Image(meta.raw.width, meta.raw.height, 3)};
  out.exact_pixels =
      render_rows(meta, seed, margin, out.image.data().data(), out.image.height(), [](int) {});
  return out;
}

}  // namespace detail

image::Image generate_synthetic_image(const SampleMeta& meta, std::uint64_t seed) {
  return detail::render_with_margin(meta, seed, detail::kFallbackMargin).image;
}

std::vector<std::uint8_t> materialize_encoded(const SampleMeta& meta, std::uint64_t seed,
                                              int quality) {
  // Row pairs go straight into the 4:2:0 planes, so no RGB frame is held.
  image::YcbcrPlanes planes(meta.raw.width, meta.raw.height);
  std::vector<std::uint8_t> pair(2 * static_cast<std::size_t>(meta.raw.width) * 3);
  render_rows(meta, seed, detail::kFallbackMargin, pair.data(), 2, [&](int first_row) {
    image::split_ycbcr_420_rows(pair.data(), first_row / 2, planes);
  });
  return codec::sjpg_encode(planes, quality);
}

}  // namespace sophon::dataset
