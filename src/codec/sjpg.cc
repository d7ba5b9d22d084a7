#include "codec/sjpg.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "codec/bitio.h"
#include "codec/huffman.h"
#include "image/color.h"
#include "util/check.h"

namespace sophon::codec {

namespace {

constexpr std::uint32_t kMagic = 0x53'4a'50'47;  // "SJPG"
// Residual symbols: zigzagged quantised residual in [0, 510], plus one
// zero-run marker. Runs carry a 10-bit length (4..1027 zeros).
constexpr std::uint32_t kZrun = 511;
constexpr std::size_t kAlphabet = 512;
constexpr std::size_t kMinRun = 4;
constexpr std::size_t kMaxRun = kMinRun + 1023;

std::uint32_t zigzag(int v) {
  return v >= 0 ? static_cast<std::uint32_t>(2 * v)
                : static_cast<std::uint32_t>(-2 * v - 1);
}

int unzigzag(std::uint32_t s) {
  return static_cast<int>(s >> 1) ^ -static_cast<int>(s & 1u);
}

/// Per-row predictor modes (PNG-style adaptive filtering). The encoder
/// trials every mode per row against the evolving reconstruction and keeps
/// the cheapest; the 2-bit choice travels with the plane.
enum class Predictor : std::uint8_t { kMed = 0, kLeft = 1, kUp = 2, kAvg = 3 };
constexpr int kPredictorCount = 4;

/// Prediction for pixel x > 0 of a row from its reconstructed left
/// neighbour `a` and the reconstructed row above (unread by kLeft, the
/// first row's mode).
template <Predictor kMode>
int predict(int a, const std::uint8_t* up, int x) {
  if constexpr (kMode == Predictor::kLeft) {
    return a;
  } else if constexpr (kMode == Predictor::kUp) {
    return up[x];
  } else if constexpr (kMode == Predictor::kAvg) {
    return (a + up[x]) / 2;
  } else {
    return med_predict(a, up[x], up[x - 1]);
  }
}

/// Clamps a reconstructed pixel to [0, 255]. A prediction plus its residual
/// leaves that range only at the extremes, so this is a well-predicted
/// branch instead of two selects on the row's serial dependency chain.
int clamp_pixel(int v) {
  if (static_cast<unsigned>(v) > 255u) [[unlikely]] {
    return v < 0 ? 0 : 255;
  }
  return v;
}

template <Predictor kMode, typename Residual>
void rebuild_row(std::uint8_t* row, const std::uint8_t* up, int width, Residual& residual) {
  int a = row[0];
  for (int x = 1; x < width; ++x) {
    const int pred = predict<kMode>(a, up, x);
    a = clamp_pixel(pred + residual(x, pred));
    row[x] = static_cast<std::uint8_t>(a);
  }
}

/// Closed-loop reconstruction of one row, shared by encoder and decoder so
/// both predict from exactly the same pixels. `up` is the reconstructed row
/// above (nullptr on the first row). The first pixel predicts from above (or
/// 128 on the first row), the rest of the first row from the left, and every
/// other pixel by `mode`, dispatched once for the row. `residual(x, pred)`
/// returns pixel x's dequantised residual (quantised residual times step);
/// row[x] becomes pred plus that, clamped.
template <typename Residual>
void predict_row(std::uint8_t* row, const std::uint8_t* up, int width, Predictor mode,
                 Residual&& residual) {
  const int first = up != nullptr ? up[0] : 128;
  row[0] = static_cast<std::uint8_t>(clamp_pixel(first + residual(0, first)));
  switch (up != nullptr ? mode : Predictor::kLeft) {
    case Predictor::kLeft:
      return rebuild_row<Predictor::kLeft>(row, up, width, residual);
    case Predictor::kUp:
      return rebuild_row<Predictor::kUp>(row, up, width, residual);
    case Predictor::kAvg:
      return rebuild_row<Predictor::kAvg>(row, up, width, residual);
    case Predictor::kMed:
      return rebuild_row<Predictor::kMed>(row, up, width, residual);
  }
}

/// Quantise a residual with a mid-tread uniform quantiser.
int quantise(int residual, int step) {
  if (step == 1) return residual;
  const int sign = residual < 0 ? -1 : 1;
  return sign * ((std::abs(residual) + step / 2) / step);
}

/// Closed-loop DPCM over row y with a fixed predictor, starting from the
/// reconstruction built so far. Appends symbols and writes the row's
/// reconstruction; returns a cost proxy (sum of |quantised residual|).
std::int64_t dpcm_row(const image::Plane& src, image::Plane& rec, int y, Predictor mode,
                      int step, std::vector<std::uint32_t>& symbols) {
  const auto w = static_cast<std::size_t>(src.width());
  const std::uint8_t* in = src.data().data() + static_cast<std::size_t>(y) * w;
  std::uint8_t* row = rec.data().data() + static_cast<std::size_t>(y) * w;
  std::int64_t cost = 0;
  predict_row(row, y > 0 ? row - w : nullptr, src.width(), mode, [&](int x, int pred) {
    const int q = quantise(in[x] - pred, step);
    symbols.push_back(zigzag(q));
    cost += std::abs(q);
    return q * step;
  });
  return cost;
}

/// Closed-loop DPCM pass with per-row adaptive predictors: produces the
/// symbol stream, the chosen predictor per row, and the reconstruction the
/// decoder will arrive at (so prediction stays in sync under lossy
/// quantisation).
std::vector<std::uint32_t> dpcm_symbols(const image::Plane& src, int step,
                                        std::vector<Predictor>& row_modes) {
  image::Plane rec(src.width(), src.height());
  const auto w = static_cast<std::size_t>(src.width());
  std::vector<std::uint32_t> symbols;
  symbols.reserve(w * static_cast<std::size_t>(src.height()));
  row_modes.clear();
  row_modes.reserve(static_cast<std::size_t>(src.height()));

  std::vector<std::uint32_t> trial;
  trial.reserve(w);
  std::vector<std::uint32_t> best_symbols;
  best_symbols.reserve(w);
  std::vector<std::uint8_t> best_row(w);
  for (int y = 0; y < src.height(); ++y) {
    std::uint8_t* row = rec.data().data() + static_cast<std::size_t>(y) * w;
    Predictor best_mode = Predictor::kMed;
    std::int64_t best_cost = -1;
    for (int m = 0; m < kPredictorCount; ++m) {
      const auto mode = static_cast<Predictor>(m);
      trial.clear();
      const auto cost = dpcm_row(src, rec, y, mode, step, trial);
      if (best_cost < 0 || cost < best_cost) {
        best_cost = cost;
        best_mode = mode;
        best_symbols.swap(trial);
        std::copy(row, row + w, best_row.begin());
      }
    }
    // Commit the winner's reconstruction (later trials overwrote the row).
    std::copy(best_row.begin(), best_row.end(), row);
    symbols.insert(symbols.end(), best_symbols.begin(), best_symbols.end());
    row_modes.push_back(best_mode);
  }
  return symbols;
}

/// Collapse zero runs into ZRUN markers. Returns (symbol, run_payload) pairs;
/// run_payload is only meaningful after a ZRUN.
struct RleToken {
  std::uint32_t symbol;
  std::uint32_t run = 0;  // encoded as run - kMinRun in 10 bits
};

std::vector<RleToken> run_length_encode(const std::vector<std::uint32_t>& symbols) {
  std::vector<RleToken> tokens;
  tokens.reserve(symbols.size());
  std::size_t i = 0;
  while (i < symbols.size()) {
    if (symbols[i] == 0) {
      std::size_t run = 1;
      while (i + run < symbols.size() && symbols[i + run] == 0 && run < kMaxRun) ++run;
      if (run >= kMinRun) {
        tokens.push_back({kZrun, static_cast<std::uint32_t>(run - kMinRun)});
        i += run;
        continue;
      }
    }
    tokens.push_back({symbols[i]});
    ++i;
  }
  return tokens;
}

void encode_plane(BitWriter& out, const image::Plane& plane, int step) {
  std::vector<Predictor> row_modes;
  const auto symbols = dpcm_symbols(plane, step, row_modes);
  const auto tokens = run_length_encode(symbols);

  // Per-row predictor choices first (2 bits each), then the entropy data.
  for (const auto mode : row_modes) out.put(static_cast<std::uint64_t>(mode), 2);

  std::vector<std::uint64_t> freqs(kAlphabet, 0);
  for (const auto& t : tokens) ++freqs[t.symbol];
  const auto lengths = huffman_code_lengths(freqs);
  write_code_lengths(out, lengths);

  const HuffmanEncoder encoder(lengths);
  for (const auto& t : tokens) {
    encoder.encode(out, t.symbol);
    if (t.symbol == kZrun) out.put(t.run, 10);
  }
}

bool decode_plane(BitReader& in, image::Plane& plane, int step) {
  std::vector<Predictor> row_modes(static_cast<std::size_t>(plane.height()));
  for (auto& mode : row_modes) {
    mode = static_cast<Predictor>(in.get(2));
  }
  if (in.overrun()) return false;
  const auto lengths = read_code_lengths(in, kAlphabet);
  if (in.overrun()) return false;
  bool any = false;
  for (const auto len : lengths)
    if (len > 0) any = true;
  if (!any) return false;
  const HuffmanDecoder decoder(lengths, kZrun);

  // Each row is decoded in two passes. Pass 1 entropy-decodes the row's
  // residuals, dequantised, into `residuals`; a zero run is a fill and may
  // carry into the next rows. Pass 2 rebuilds the row through the predictor
  // shared with the encoder. The reader is a local copy for the whole plane,
  // so its state stays in registers.
  const auto w = static_cast<std::size_t>(plane.width());
  const std::size_t total = w * static_cast<std::size_t>(plane.height());
  std::vector<int> residuals(w);
  int* const res = residuals.data();
  BitReader bits = in;
  std::size_t zeros = 0;  // pending zero residuals from the last run marker
  for (int y = 0; y < plane.height(); ++y) {
    const std::size_t row_start = static_cast<std::size_t>(y) * w;
    std::size_t x = std::min(zeros, w);
    std::fill_n(res, x, 0);
    zeros -= x;
    while (x < w) {
      // Two literal residuals per lookup where they fit, then one symbol.
      if (x + 1 < w) {
        if (const auto pair = decoder.decode_pair(bits)) {
          if (bits.overrun()) return false;
          res[x] = unzigzag((*pair)[0]) * step;
          res[x + 1] = unzigzag((*pair)[1]) * step;
          x += 2;
          continue;
        }
      }
      const auto sym = decoder.decode(bits);
      if (sym == HuffmanDecoder::invalid_symbol() || bits.overrun()) return false;
      if (sym != kZrun) {
        res[x++] = unzigzag(sym) * step;
        continue;
      }
      const auto run = static_cast<std::size_t>(bits.get(10)) + kMinRun;
      if (run > total - row_start - x) return false;
      const std::size_t n = std::min(run, w - x);
      std::fill_n(res + x, n, 0);
      x += n;
      zeros = run - n;
    }
    std::uint8_t* row = plane.data().data() + row_start;
    predict_row(row, y > 0 ? row - w : nullptr, plane.width(),
                row_modes[static_cast<std::size_t>(y)], [res](int px, int) { return res[px]; });
  }
  in = bits;
  return true;
}

}  // namespace

int sjpg_quant_step(int quality) {
  SOPHON_CHECK(quality >= 1 && quality <= 100);
  // Quality 92+ → step 1 (near-lossless); quality 80 → step 4; quality 60 →
  // step 9; quality 1 → step 23.
  if (quality >= 92) return 1;
  return 1 + (92 - quality) / 4;
}

std::vector<std::uint8_t> sjpg_encode(const image::Image& img, int quality) {
  SOPHON_CHECK(!img.empty());
  SOPHON_CHECK(quality >= 1 && quality <= 100);
  SOPHON_CHECK(img.width() <= 0xffff && img.height() <= 0xffff);

  BitWriter out;
  out.put(kMagic, 32);
  out.put(static_cast<std::uint64_t>(img.width()), 16);
  out.put(static_cast<std::uint64_t>(img.height()), 16);
  out.put(static_cast<std::uint64_t>(img.channels()), 8);
  out.put(static_cast<std::uint64_t>(quality), 8);

  const int luma_step = sjpg_quant_step(quality);
  const int chroma_step = std::min(2 * luma_step, 32);

  if (img.channels() == 3) {
    const auto planes = image::split_ycbcr_420(img);
    encode_plane(out, planes.y, luma_step);
    encode_plane(out, planes.cb, chroma_step);
    encode_plane(out, planes.cr, chroma_step);
  } else {
    image::Plane gray(img.width(), img.height());
    std::copy(img.data().begin(), img.data().end(), gray.data().begin());
    encode_plane(out, gray, luma_step);
  }
  return out.finish();
}

std::optional<SjpgHeader> sjpg_peek(std::span<const std::uint8_t> blob) {
  BitReader in(blob);
  if (in.get(32) != kMagic) return std::nullopt;
  SjpgHeader hdr;
  hdr.width = static_cast<int>(in.get(16));
  hdr.height = static_cast<int>(in.get(16));
  hdr.channels = static_cast<int>(in.get(8));
  hdr.quality = static_cast<int>(in.get(8));
  if (in.overrun()) return std::nullopt;
  if (hdr.width <= 0 || hdr.height <= 0) return std::nullopt;
  if (hdr.channels != 1 && hdr.channels != 3) return std::nullopt;
  if (hdr.quality < 1 || hdr.quality > 100) return std::nullopt;
  // Every entropy symbol takes at least one bit and covers at most kMaxRun
  // pixels, so a blob of n bytes cannot fill a plane of more than
  // 8 * n * kMaxRun pixels. Rejecting larger headers here keeps a forged
  // header from making decode allocate planes the payload could never fill.
  const auto pixels =
      static_cast<std::uint64_t>(hdr.width) * static_cast<std::uint64_t>(hdr.height);
  if (pixels > 8 * blob.size() * kMaxRun) return std::nullopt;
  return hdr;
}

std::optional<image::Image> sjpg_decode(std::span<const std::uint8_t> blob) {
  const auto hdr = sjpg_peek(blob);
  if (!hdr) return std::nullopt;

  BitReader in(blob);
  in.get(32);  // magic
  in.get(16);
  in.get(16);
  in.get(8);
  in.get(8);

  const int luma_step = sjpg_quant_step(hdr->quality);
  const int chroma_step = std::min(2 * luma_step, 32);

  if (hdr->channels == 3) {
    image::Plane y(hdr->width, hdr->height);
    image::Plane cb((hdr->width + 1) / 2, (hdr->height + 1) / 2);
    image::Plane cr((hdr->width + 1) / 2, (hdr->height + 1) / 2);
    if (!decode_plane(in, y, luma_step)) return std::nullopt;
    if (!decode_plane(in, cb, chroma_step)) return std::nullopt;
    if (!decode_plane(in, cr, chroma_step)) return std::nullopt;
    return image::merge_ycbcr_420(y, cb, cr, hdr->width, hdr->height);
  }

  image::Plane gray(hdr->width, hdr->height);
  if (!decode_plane(in, gray, luma_step)) return std::nullopt;
  return image::Image(hdr->width, hdr->height, 1, std::move(gray.data()));
}

}  // namespace sophon::codec
