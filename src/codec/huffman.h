// Canonical Huffman coding over an arbitrary symbol alphabet.
//
// The SJPG image codec entropy-codes quantised prediction residuals with a
// per-plane Huffman table. Tables are serialised as code lengths only
// (canonical assignment makes the codes themselves implicit), exactly like
// DEFLATE/JPEG do.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/bitio.h"

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
  void encode(BitWriter& out, std::uint32_t symbol) const;

  [[nodiscard]] std::size_t alphabet_size() const { return lengths_.size(); }
  [[nodiscard]] std::uint8_t length_of(std::uint32_t symbol) const { return lengths_[symbol]; }

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
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(const std::vector<std::uint8_t>& lengths);

  /// Decode one symbol. On a corrupt stream returns `invalid_symbol()` —
  /// callers must treat it as a decode failure.
  [[nodiscard]] std::uint32_t decode(BitReader& in) const {
    const Entry e = table_[in.peek(kTableBits)];
    if (e.length == 0) return decode_long(in);
    in.skip(e.length);
    return e.symbol;
  }

  [[nodiscard]] static constexpr std::uint32_t invalid_symbol() { return 0xffffffffu; }

 private:
  static constexpr int kTableBits = 10;  // width of the lookup table index

  struct Entry {
    std::uint32_t symbol = 0;
    std::uint8_t length = 0;  // 0: no code of at most kTableBits bits
  };

  /// The walk for codes longer than kTableBits (or no code at all).
  [[nodiscard]] std::uint32_t decode_long(BitReader& in) const;

  int max_len_ = 0;
  // Indexed by code length 1..max_len_.
  std::vector<std::uint32_t> first_code_;    // first canonical code of this length
  std::vector<std::uint32_t> first_index_;   // index into sorted_symbols_ for that code
  std::vector<std::uint32_t> count_;         // number of codes of this length
  std::vector<std::uint32_t> sorted_symbols_;
  std::vector<Entry> table_;                 // 1 << kTableBits entries
};

/// Serialise code lengths into the bitstream (alphabet size is implicit —
/// both sides agree on it). Uses 5 bits per length, RLE for zero runs.
void write_code_lengths(BitWriter& out, const std::vector<std::uint8_t>& lengths);

/// Inverse of write_code_lengths for a known alphabet size.
[[nodiscard]] std::vector<std::uint8_t> read_code_lengths(BitReader& in, std::size_t alphabet);

}  // namespace sophon::codec
