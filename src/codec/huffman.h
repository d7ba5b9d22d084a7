// Canonical Huffman coding over an arbitrary symbol alphabet.
//
// The SJPG image codec entropy-codes quantised prediction residuals with a
// per-plane Huffman table. Tables are serialised as code lengths only
// (canonical assignment makes the codes themselves implicit), exactly like
// DEFLATE/JPEG do.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "codec/bitio.h"
#include "util/check.h"

namespace sophon::codec {

/// Compute canonical Huffman code lengths for the given symbol frequencies.
/// Zero-frequency symbols get length 0 (no code). Lengths are capped at
/// `max_length` bits by flattening over-deep leaves (the standard adjust
/// pass), which keeps the decoder's tables small.
/// Degenerate cases: an alphabet with a single used symbol is assigned
/// length 1 so the bitstream is self-delimiting.
[[nodiscard]] std::vector<std::uint8_t> huffman_code_lengths(
    const std::vector<std::uint64_t>& freqs, int max_length = 20);

/// Encoder: canonical codes derived from lengths.
class HuffmanEncoder {
 public:
  /// `lengths[s]` is the code length for symbol `s` (0 = unused).
  explicit HuffmanEncoder(const std::vector<std::uint8_t>& lengths);

  /// Write the code for `symbol`; the symbol must have a nonzero length.
  void encode(BitWriter& out, std::uint32_t symbol) const {
    SOPHON_CHECK(symbol < lengths_.size());
    SOPHON_CHECK_MSG(lengths_[symbol] > 0, "symbol has no code");
    out.put(codes_[symbol], lengths_[symbol]);
  }

 private:
  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> codes_;
};

/// Decoder: one lookup in a table indexed by the next `kTableBits` bits
/// resolves every code of up to that length; longer codes fall back to the
/// canonical first-code walk (one length at a time) from where the table
/// left off. Corrupt tables decode exactly as the walk alone would: the
/// table holds only codes reachable at their length, and where an
/// over-subscribed table lets codes overlap, the shortest one wins.
///
/// Each lookup also resolves a run of up to four literal codes (none the
/// escape) that lie within the lookup width, so `literals` answers for
/// several symbols with one lookup.
class HuffmanDecoder {
 public:
  /// Longest code the decoder accepts (the serialised lengths are 5-bit).
  static constexpr int kMaxCodeBits = 32;

  /// Every length must be at most kMaxCodeBits. `escape`, when given, is a
  /// symbol the stream follows with raw bits (SJPG's zero-run marker), so
  /// no run of literals holds it.
  explicit HuffmanDecoder(const std::vector<std::uint8_t>& lengths,
                          std::uint32_t escape = invalid_symbol());

  /// Decode one symbol. On a corrupt stream returns `invalid_symbol()` —
  /// callers must treat it as a decode failure. Only `in` changes, and the
  /// slow path reads a copy of its next bits, so a caller's local reader
  /// never has its address taken.
  [[nodiscard]] std::uint32_t decode(BitReader& in) const {
    Entry e = table_[in.peek(kTableBits)];
    if (e.length == 0) e = decode_long(static_cast<std::uint32_t>(in.peek(kMaxCodeBits)));
    in.skip(e.length);
    return e.symbol;
  }

  /// The codes that lie within the lookup width at the reader's position,
  /// up to four and stopping before the escape, a longer code or a gap.
  /// `symbols[k]` is what the (k+1)-th `decode` call would return and
  /// `ends[k]` the bits those k+1 calls consume; `count` is 0 when the next
  /// code is not such a literal. Consumes nothing: the caller skips
  /// `ends[n - 1]` bits for the first n symbols it takes, or `bits` for
  /// all of them, which keeps a load off the reader's dependency chain.
  struct alignas(16) Literals {
    std::array<std::uint16_t, 4> symbols{};
    std::array<std::uint8_t, 4> ends{};
    std::uint8_t count = 0;
    std::uint8_t bits = 0;  // ends[count - 1], or 0
  };
  [[nodiscard]] const Literals& literals(BitReader& in) const {
    return literals_[in.peek(kTableBits)];
  }

  [[nodiscard]] static constexpr std::uint32_t invalid_symbol() { return 0xffffffffu; }

 private:
  static constexpr int kTableBits = 10;  // width of the lookup table index

  struct Entry {
    std::uint32_t symbol = 0;
    std::uint8_t length = 0;  // 0: no code of at most kTableBits bits
  };

  /// The walk for codes longer than kTableBits (or no code at all) over
  /// `window`, the next kMaxCodeBits bits. A failed walk reads max_len_ bits
  /// and yields invalid_symbol().
  [[nodiscard]] Entry decode_long(std::uint32_t window) const;

  int max_len_ = 0;
  // Indexed by code length 1..max_len_.
  std::vector<std::uint32_t> first_code_;    // first canonical code of this length
  std::vector<std::uint32_t> first_index_;   // index into sorted_symbols_ for that code
  std::vector<std::uint32_t> count_;         // number of codes of this length
  std::vector<std::uint32_t> sorted_symbols_;
  std::vector<Entry> table_;                 // 1 << kTableBits entries
  std::vector<Literals> literals_;           // 1 << kTableBits entries
};

/// Serialise code lengths into the bitstream (alphabet size is implicit —
/// both sides agree on it). Uses 5 bits per length, RLE for zero runs.
void write_code_lengths(BitWriter& out, const std::vector<std::uint8_t>& lengths);

/// Inverse of write_code_lengths for a known alphabet size.
[[nodiscard]] std::vector<std::uint8_t> read_code_lengths(BitReader& in, std::size_t alphabet);

}  // namespace sophon::codec
