// MSB-first bit-level I/O over byte buffers — the substrate for the Huffman
// coder. Writer owns its buffer; reader borrows one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace sophon::codec {

/// Accumulates bits most-significant-first into a growing byte vector.
class BitWriter {
 public:
  /// Append the low `count` bits of `bits` (MSB of that group first).
  /// `count` must be in [0, 57] so the accumulator never overflows.
  void put(std::uint64_t bits, int count);

  /// Flush any partial byte (zero-padded) and return the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Bits written so far (excluding padding).
  [[nodiscard]] std::uint64_t bit_count() const { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  int acc_bits_ = 0;
  std::uint64_t bit_count_ = 0;
};

/// Reads bits most-significant-first from a borrowed byte span. Bits are
/// staged in a 64-bit accumulator refilled several bytes at a time, so the
/// entropy decoder can `peek` a lookup-table index and `skip` the code
/// length it finds there.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Read `count` bits (0..57). Reads past the end are zero-filled and set
  /// the overrun flag — callers check `overrun()` after decoding.
  std::uint64_t get(int count) {
    const std::uint64_t bits = peek(count);
    skip(count);
    return bits;
  }

  /// Read a single bit (0 or 1).
  int get_bit() { return static_cast<int>(get(1)); }

  /// The next `count` bits (0..57) without consuming them. Bits past the
  /// end read as zero; peeking alone never sets the overrun flag.
  std::uint64_t peek(int count) {
    SOPHON_CHECK(count >= 0 && count <= 57);
    if (acc_bits_ < count) refill();
    return count == 0 ? 0 : acc_ >> (64 - count);
  }

  /// Consume `count` bits (0..57), as `get` does.
  void skip(int count) {
    SOPHON_CHECK(count >= 0 && count <= 57);
    if (acc_bits_ < count) refill();
    acc_ <<= count;
    acc_bits_ -= count;
    bits_consumed_ += static_cast<std::uint64_t>(count);
  }

  /// True once more bits have been consumed than the buffer holds.
  [[nodiscard]] bool overrun() const { return bits_consumed_ > 8 * data_.size(); }
  [[nodiscard]] std::uint64_t bits_consumed() const { return bits_consumed_; }

 private:
  /// Top the accumulator up to at least 57 valid bits, zero-filling past
  /// the end of the buffer.
  void refill();

  std::span<const std::uint8_t> data_;
  std::size_t byte_pos_ = 0;
  std::uint64_t acc_ = 0;  // next unread bit in the most significant position
  int acc_bits_ = 0;       // valid bits at the top of acc_
  std::uint64_t bits_consumed_ = 0;
};

}  // namespace sophon::codec
