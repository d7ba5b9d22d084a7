#include "dataset/synth.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "codec/sjpg.h"
#include "image/color.h"
#include "util/check.h"

namespace sophon::dataset {

namespace {

constexpr double kTwoPi = 6.28318530717958647692;

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

/// Renders the image `meta` describes top to bottom into `rows`, which
/// holds `capacity` RGB rows: row y goes to slot y % capacity. Each time the
/// slots fill, and after the last row, `flush(first_row)` gets the rows just
/// rendered, from row first_row in slot 0.
template <typename Flush>
void render_rows(const SampleMeta& meta, std::uint64_t seed, std::uint8_t* rows, int capacity,
                 Flush&& flush) {
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
  // argument it would see written per pixel.
  const auto cols = static_cast<std::size_t>(w);
  std::vector<double> grad_u(cols);                   // gx * (u - 0.5)
  std::vector<double> wave_u(cols * waves.size());    // fx * u * 2pi, per column and wave
  std::vector<double> blob_dx2(cols * blobs.size());  // dx * dx, per column and blob
  for (std::size_t x = 0; x < cols; ++x) {
    const double u = static_cast<double>(x) / w;
    grad_u[x] = gx * (u - 0.5);
    for (std::size_t i = 0; i < waves.size(); ++i) {
      wave_u[x * waves.size() + i] = waves[i].fx * u * kTwoPi;
    }
    for (std::size_t j = 0; j < blobs.size(); ++j) {
      const double dx = u - blobs[j].cx;
      blob_dx2[x * blobs.size() + j] = dx * dx;
    }
  }
  std::vector<double> two_r2(blobs.size());
  for (std::size_t j = 0; j < blobs.size(); ++j) {
    two_r2[j] = 2.0 * blobs[j].radius * blobs[j].radius;
  }
  std::array<double, 3> span{};
  for (std::size_t c = 0; c < span.size(); ++c) span[c] = hi[c] - lo[c];

  std::vector<double> wave_v(waves.size());
  std::vector<double> blob_dy2(blobs.size());
  int first_row = 0;
  for (int y = 0; y < h; ++y) {
    if (y - first_row == capacity) {
      flush(first_row);
      first_row = y;
    }
    std::uint8_t* pixels = rows + static_cast<std::size_t>(y - first_row) * cols * 3;
    std::size_t idx = 0;
    const double v = static_cast<double>(y) / h;
    const double grad_v = gy * (v - 0.5);
    for (std::size_t i = 0; i < waves.size(); ++i) wave_v[i] = waves[i].fy * v * kTwoPi;
    for (std::size_t j = 0; j < blobs.size(); ++j) {
      const double dy = v - blobs[j].cy;
      blob_dy2[j] = dy * dy;
    }
    for (std::size_t x = 0; x < cols; ++x) {
      const double t = std::clamp(0.5 + 0.5 * (grad_u[x] + grad_v) * 2.0, 0.0, 1.0);

      double structure = 0.0;
      const double* wu = wave_u.data() + x * waves.size();
      for (std::size_t i = 0; i < waves.size(); ++i) {
        structure += waves[i].amplitude * std::sin(wu[i] + wave_v[i] + waves[i].phase);
      }
      std::array<double, 3> blob_delta{};
      const double* dx2 = blob_dx2.data() + x * blobs.size();
      for (std::size_t j = 0; j < blobs.size(); ++j) {
        const double falloff = std::exp(-(dx2[j] + blob_dy2[j]) / two_r2[j]);
        for (std::size_t c = 0; c < blob_delta.size(); ++c) {
          blob_delta[c] += blobs[j].color[c] * falloff;
        }
      }

      for (std::size_t c = 0; c < 3; ++c) {
        const double base = lo[c] + span[c] * t;
        const double noise = noise_amp * (rng.uniform() - 0.5);
        const double value = base + structure + blob_delta[c] + noise;
        pixels[idx++] = static_cast<std::uint8_t>(std::clamp(value, 0.0, 255.0));
      }
    }
  }
  flush(first_row);
}

}  // namespace

image::Image generate_synthetic_image(const SampleMeta& meta, std::uint64_t seed) {
  image::Image img(meta.raw.width, meta.raw.height, 3);
  render_rows(meta, seed, img.data().data(), img.height(), [](int) {});
  return img;
}

std::vector<std::uint8_t> materialize_encoded(const SampleMeta& meta, std::uint64_t seed,
                                              int quality) {
  // Row pairs go straight into the 4:2:0 planes, so no RGB frame is held.
  image::YcbcrPlanes planes(meta.raw.width, meta.raw.height);
  std::vector<std::uint8_t> pair(2 * static_cast<std::size_t>(meta.raw.width) * 3);
  render_rows(meta, seed, pair.data(), 2, [&](int first_row) {
    image::split_ycbcr_420_rows(pair.data(), first_row / 2, planes);
  });
  return codec::sjpg_encode(planes, quality);
}

}  // namespace sophon::dataset
