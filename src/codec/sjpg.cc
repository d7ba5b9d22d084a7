#include "codec/sjpg.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>

#include "codec/bitio.h"
#include "codec/huffman.h"
#include "image/color.h"
#include "image/ops.h"
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

/// A residual quantised at a plane's step: its symbol and the dequantised
/// value the reconstruction adds (q times step). Its cost, |q|, is
/// (symbol + 1) / 2.
struct Quantised {
  std::int16_t dequantised;
  std::uint16_t symbol;
};

/// `quantise` for every residual a plane can produce: a pixel minus a
/// prediction lies in [-255, 255], so a trial pays a lookup, not a division.
class QuantTable {
 public:
  explicit QuantTable(int step) {
    for (int r = -255; r <= 255; ++r) {
      const int q = quantise(r, step);
      entries_[static_cast<std::size_t>(r + 255)] = {static_cast<std::int16_t>(q * step),
                                                     static_cast<std::uint16_t>(zigzag(q))};
    }
  }
  const Quantised& operator[](int residual) const {
    return entries_[static_cast<std::size_t>(residual + 255)];
  }

 private:
  std::array<Quantised, 511> entries_{};
};

/// Streams a plane's residual symbols into tokens, collapsing zero runs:
/// kMinRun or more zeros become one kZrun token, a run is cut at kMaxRun
/// (the zeros after it start a new run), and fewer than kMinRun stay
/// literal zeros. A token is a literal symbol below kZrun, or kZrun plus
/// the run length minus kMinRun, so it fits 16 bits and the buffer holds
/// at most one per pixel. Zeros are written as literals until a run reaches
/// kMinRun, which turns them into a run token that later zeros lengthen in
/// place, so the tokens are complete after every symbol and runs carry
/// across rows. Counts each token's code symbol for the plane's Huffman
/// table as it goes.
class ZeroRunCoder {
 public:
  explicit ZeroRunCoder(std::size_t pixels)
      : tokens_(std::make_unique_for_overwrite<std::uint16_t[]>(pixels)), freqs_(kAlphabet, 0) {}

  void push(std::span<const std::uint16_t> symbols) {
    // The state lives in locals for the loop: a count store could alias it.
    std::uint16_t* const tokens = tokens_.get();
    std::uint64_t* const freqs = freqs_.data();
    std::size_t size = size_;
    std::size_t zeros = zeros_;
    for (const std::uint16_t symbol : symbols) {
      // Arithmetic, not a branch on the symbol: zero and nonzero residuals
      // alternate unpredictably, and only a run's start and end should branch.
      zeros = (zeros + 1) & -static_cast<std::size_t>(symbol == 0);
      const bool literal = zeros < kMinRun;
      tokens[size] = symbol;
      size += literal;
      freqs[symbol] += literal;
      if (literal) [[likely]] continue;
      if (zeros == kMinRun) {
        size -= kMinRun - 1;
        tokens[size++] = kZrun;
        freqs[0] -= kMinRun - 1;
        ++freqs[kZrun];
      } else {
        ++tokens[size - 1];
      }
      if (zeros == kMaxRun) zeros = 0;
    }
    size_ = size;
    zeros_ = zeros;
  }

  [[nodiscard]] std::span<const std::uint16_t> tokens() const { return {tokens_.get(), size_}; }
  [[nodiscard]] const std::vector<std::uint64_t>& freqs() const { return freqs_; }

 private:
  std::unique_ptr<std::uint16_t[]> tokens_;  // one slot per pixel, the first size_ written
  std::size_t size_ = 0;
  std::vector<std::uint64_t> freqs_;
  std::size_t zeros_ = 0;  // length of the zero run the last symbol is in
};

/// Row y > 0's four predictor trials in one pass over x, each mode with its
/// own reconstruction chain from `a0`, pixel 0's reconstruction (pixel 0
/// predicts from above in every mode, so the caller codes it). From x = 1,
/// mode m's reconstruction of pixel x goes to rec[4x + m] and its symbol to
/// sym[4x + m]. Returns the cheapest mode: the least sum of |quantised
/// residual|, the first in mode order on a tie.
Predictor trial_row(const std::uint8_t* in, const std::uint8_t* up, int width, int a0,
                    const QuantTable& quant, std::uint8_t* rec, std::uint16_t* sym) {
  std::array<int, kPredictorCount> a{a0, a0, a0, a0};
  for (int x = 1; x < width; ++x) {
    const int v = in[x];
    const auto at = 4 * static_cast<std::size_t>(x);
    const auto trial = [&](std::size_t m, int pred) {
      const Quantised& e = quant[v - pred];
      a[m] = clamp_pixel(pred + e.dequantised);
      rec[at + m] = static_cast<std::uint8_t>(a[m]);
      sym[at + m] = e.symbol;
    };
    trial(0, predict<Predictor::kMed>(a[0], up, x));
    trial(1, predict<Predictor::kLeft>(a[1], up, x));
    trial(2, predict<Predictor::kUp>(a[2], up, x));
    trial(3, predict<Predictor::kAvg>(a[3], up, x));
  }
  std::array<std::uint32_t, kPredictorCount> cost{};
  for (std::size_t at = 4; at < 4 * static_cast<std::size_t>(width); at += 4) {
    for (std::size_t m = 0; m < cost.size(); ++m) cost[m] += (sym[at + m] + 1u) / 2;
  }
  std::size_t best = 0;
  for (std::size_t m = 1; m < cost.size(); ++m) {
    if (cost[m] < cost[best]) best = m;
  }
  return static_cast<Predictor>(best);
}

/// A plane's entropy-coder input: the predictor of each row, and its
/// residual symbols as zero-run tokens.
struct PlaneTokens {
  std::vector<Predictor> row_modes;
  ZeroRunCoder coder;
};

/// Closed-loop DPCM over a plane with per-row adaptive predictors. The only
/// reconstruction kept is the row above, which is what the decoder will
/// have rebuilt there, so prediction stays in sync under lossy
/// quantisation. The first row predicts from the left and is recorded as
/// kMed; every later row keeps the winner of `trial_row`.
PlaneTokens dpcm_tokens(const image::Plane& src, int step) {
  const QuantTable quant(step);
  const auto w = static_cast<std::size_t>(src.width());
  PlaneTokens out{{}, ZeroRunCoder(w * static_cast<std::size_t>(src.height()))};
  out.row_modes.reserve(static_cast<std::size_t>(src.height()));

  const std::uint8_t* in = src.data().data();
  std::vector<std::uint8_t> up(w);
  std::vector<std::uint16_t> row_symbols(w);
  predict_row(up.data(), nullptr, src.width(), Predictor::kLeft, [&](int x, int pred) {
    const Quantised& e = quant[in[x] - pred];
    row_symbols[static_cast<std::size_t>(x)] = e.symbol;
    return e.dequantised;
  });
  out.coder.push(row_symbols);
  out.row_modes.push_back(Predictor::kMed);

  std::vector<std::uint8_t> rec(4 * w);
  std::vector<std::uint16_t> sym(4 * w);
  for (int y = 1; y < src.height(); ++y) {
    in += w;
    const Quantised& first = quant[in[0] - up[0]];
    const int a0 = clamp_pixel(up[0] + first.dequantised);
    const Predictor mode = trial_row(in, up.data(), src.width(), a0, quant, rec.data(), sym.data());
    const auto best = static_cast<std::size_t>(mode);
    up[0] = static_cast<std::uint8_t>(a0);
    row_symbols[0] = first.symbol;
    for (std::size_t x = 1; x < w; ++x) {
      up[x] = rec[4 * x + best];
      row_symbols[x] = sym[4 * x + best];
    }
    out.coder.push(row_symbols);
    out.row_modes.push_back(mode);
  }
  return out;
}

void encode_plane(BitWriter& out, const image::Plane& plane, int step) {
  const PlaneTokens plane_tokens = dpcm_tokens(plane, step);

  // Per-row predictor choices first (2 bits each), then the entropy data.
  for (const auto mode : plane_tokens.row_modes) out.put(static_cast<std::uint64_t>(mode), 2);

  const auto lengths = huffman_code_lengths(plane_tokens.coder.freqs());
  write_code_lengths(out, lengths);

  const HuffmanEncoder encoder(lengths);
  for (const std::uint32_t token : plane_tokens.coder.tokens()) {
    if (token < kZrun) {
      encoder.encode(out, token);
    } else {
      encoder.encode(out, kZrun);
      out.put(token - kZrun, 10);
    }
  }
}

/// Pass 1 of a row: entropy-decodes its w residuals, dequantised, into
/// `res`, which has room for three more (a lookup's four literals are
/// written whole, and only those inside the row are consumed). The row
/// starts with `zeros` residuals still pending from the last zero-run
/// marker; a run may carry past the row's end, but not past the plane's
/// `left` pixels from the row's start. Returns false on a corrupt stream.
/// Kept out of line so the reader's state stays in registers in this loop
/// rather than competing with the row rebuild's.
[[gnu::noinline]] bool decode_residuals(BitReader& in, const HuffmanDecoder& decoder,
                                        std::size_t w, std::size_t left, int step, int* res,
                                        std::size_t& zeros) {
  BitReader bits = in;
  std::size_t x = std::min(zeros, w);
  std::fill_n(res, x, 0);
  zeros -= x;
  while (x < w) {
    // Up to four literal residuals per lookup, then one symbol.
    const auto& run = decoder.literals(bits);
    if (run.count > 0) {
      res[x] = unzigzag(run.symbols[0]) * step;
      res[x + 1] = unzigzag(run.symbols[1]) * step;
      res[x + 2] = unzigzag(run.symbols[2]) * step;
      res[x + 3] = unzigzag(run.symbols[3]) * step;
      if (run.count <= w - x) [[likely]] {
        bits.skip(run.bits);
        x += run.count;
      } else {
        bits.skip(run.ends[w - x - 1]);
        x = w;
      }
      if (bits.overrun()) return false;
      continue;
    }
    const auto sym = decoder.decode(bits);
    if (sym == HuffmanDecoder::invalid_symbol() || bits.overrun()) return false;
    if (sym != kZrun) {
      res[x++] = unzigzag(sym) * step;
      continue;
    }
    const auto run_length = static_cast<std::size_t>(bits.get(10)) + kMinRun;
    if (run_length > left - x) return false;
    const std::size_t n = std::min(run_length, w - x);
    std::fill_n(res + x, n, 0);
    x += n;
    zeros = run_length - n;
  }
  in = bits;
  return true;
}

/// Decodes a width x height plane and rebuilds its top-left corner into
/// `corner`, which may be as small as 1 x 1: the entropy pass always runs to
/// the plane's end, so a corner decode accepts exactly the streams a whole
/// one does, and no predictor reads right of or below the pixel it rebuilds.
bool decode_plane(BitReader& in, int width, int height, int step, image::Plane& corner) {
  SOPHON_CHECK(corner.width() <= width && corner.height() <= height);
  std::vector<Predictor> row_modes(static_cast<std::size_t>(height));
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

  // Each row is decoded in two passes: decode_residuals, then a rebuild of
  // the row's part of the corner through the predictor shared with the
  // encoder.
  const auto w = static_cast<std::size_t>(width);
  const std::size_t total = w * static_cast<std::size_t>(height);
  const auto corner_w = static_cast<std::size_t>(corner.width());
  std::vector<int> residuals(w + 3);
  int* const res = residuals.data();
  std::size_t zeros = 0;
  for (int y = 0; y < height; ++y) {
    const std::size_t row_start = static_cast<std::size_t>(y) * w;
    if (!decode_residuals(in, decoder, w, total - row_start, step, res, zeros)) return false;
    if (y >= corner.height()) continue;
    std::uint8_t* row = corner.data().data() + static_cast<std::size_t>(y) * corner_w;
    predict_row(row, y > 0 ? row - corner_w : nullptr, corner.width(),
                row_modes[static_cast<std::size_t>(y)], [res](int px, int) { return res[px]; });
  }
  return true;
}

/// A blob's container header, checked as a decoder will read it back.
BitWriter start_blob(int width, int height, int channels, int quality) {
  SOPHON_CHECK(width > 0 && height > 0 && width <= 0xffff && height <= 0xffff);
  SOPHON_CHECK(quality >= 1 && quality <= 100);
  BitWriter out;
  out.put(kMagic, 32);
  out.put(static_cast<std::uint64_t>(width), 16);
  out.put(static_cast<std::uint64_t>(height), 16);
  out.put(static_cast<std::uint64_t>(channels), 8);
  out.put(static_cast<std::uint64_t>(quality), 8);
  return out;
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
  if (img.channels() == 3) return sjpg_encode(image::split_ycbcr_420(img), quality);
  BitWriter out = start_blob(img.width(), img.height(), img.channels(), quality);
  image::Plane gray(img.width(), img.height());
  std::copy(img.data().begin(), img.data().end(), gray.data().begin());
  encode_plane(out, gray, sjpg_quant_step(quality));
  return out.finish();
}

std::vector<std::uint8_t> sjpg_encode(const image::YcbcrPlanes& planes, int quality) {
  const int w = planes.y.width();
  const int h = planes.y.height();
  SOPHON_CHECK(planes.cb.width() == (w + 1) / 2 && planes.cb.height() == (h + 1) / 2);
  SOPHON_CHECK(planes.cr.width() == planes.cb.width() && planes.cr.height() == planes.cb.height());
  BitWriter out = start_blob(w, h, 3, quality);
  const int luma_step = sjpg_quant_step(quality);
  const int chroma_step = std::min(2 * luma_step, 32);
  encode_plane(out, planes.y, luma_step);
  encode_plane(out, planes.cb, chroma_step);
  encode_plane(out, planes.cr, chroma_step);
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

std::optional<image::Image> sjpg_decode(std::span<const std::uint8_t> blob,
                                        std::optional<image::CropRect> region) {
  const auto hdr = sjpg_peek(blob);
  if (!hdr) return std::nullopt;
  const image::CropRect rect = region.value_or(image::CropRect{0, 0, hdr->width, hdr->height});
  SOPHON_CHECK(rect.x >= 0 && rect.y >= 0 && rect.width > 0 && rect.height > 0);
  SOPHON_CHECK(rect.width <= hdr->width - rect.x && rect.height <= hdr->height - rect.y);
  const int right = rect.x + rect.width;
  const int bottom = rect.y + rect.height;

  BitReader in(blob);
  in.get(32);  // magic
  in.get(16);
  in.get(16);
  in.get(8);
  in.get(8);

  const int luma_step = sjpg_quant_step(hdr->quality);
  const int chroma_step = std::min(2 * luma_step, 32);

  image::Plane y(right, bottom);
  if (!decode_plane(in, hdr->width, hdr->height, luma_step, y)) return std::nullopt;
  if (hdr->channels == 3) {
    const int chroma_w = (hdr->width + 1) / 2;
    const int chroma_h = (hdr->height + 1) / 2;
    image::Plane cb((right + 1) / 2, (bottom + 1) / 2);
    image::Plane cr((right + 1) / 2, (bottom + 1) / 2);
    if (!decode_plane(in, chroma_w, chroma_h, chroma_step, cb)) return std::nullopt;
    if (!decode_plane(in, chroma_w, chroma_h, chroma_step, cr)) return std::nullopt;
    return image::merge_ycbcr_420(y, cb, cr, rect);
  }

  image::Image gray(right, bottom, 1, std::move(y.data()));
  if (rect.x == 0 && rect.y == 0) return gray;
  return image::crop(gray, rect);
}

}  // namespace sophon::codec
