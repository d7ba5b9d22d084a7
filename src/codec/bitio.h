// MSB-first bit-level I/O over byte buffers — the substrate for the Huffman
// coder. Writer owns its buffer; reader borrows one.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/check.h"

namespace sophon::codec {

/// Accumulates bits most-significant-first into a growing byte vector.
/// `put` is inline and branch-free on the data: every call stores the
/// accumulator's next eight bytes and keeps only its whole ones, so an
/// entropy coder's loop pays no call and no unpredictable branch.
class BitWriter {
 public:
  /// Append the low `count` bits of `bits` (MSB of that group first).
  /// `count` must be in [0, 57] so the accumulator never overflows.
  void put(std::uint64_t bits, int count) {
    SOPHON_CHECK(count >= 0 && count <= 57);
    if (count == 0) return;
    if (count == 57) [[unlikely]] {
      put(bits >> 1, 56);
      put(bits, 1);
      return;
    }
    // Here count <= 56 and acc_bits_ <= 7, so every shift is below 64.
    acc_ |= (bits & ((std::uint64_t{1} << count) - 1)) << (64 - acc_bits_ - count);
    acc_bits_ += count;
    if (bytes_.size() - used_ < sizeof acc_) grow();
    std::uint64_t word = acc_;
    if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
    std::memcpy(bytes_.data() + used_, &word, sizeof word);
    const int whole = acc_bits_ >> 3;
    used_ += static_cast<std::size_t>(whole);
    acc_ <<= 8 * whole;
    acc_bits_ &= 7;
  }

  /// Flush any partial byte (zero-padded) and return the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Bits written so far (excluding padding).
  [[nodiscard]] std::uint64_t bit_count() const {
    return 8 * static_cast<std::uint64_t>(used_) + static_cast<std::uint64_t>(acc_bits_);
  }

 private:
  /// Makes room for an 8-byte store at `used_`.
  void grow();

  std::vector<std::uint8_t> bytes_;  // the first used_ bytes are written
  std::size_t used_ = 0;
  std::uint64_t acc_ = 0;  // pending bits from the most significant one down
  int acc_bits_ = 0;       // pending bits, below 8 between calls
};

/// Reads bits most-significant-first from a borrowed byte span. Bits are
/// staged in a 64-bit accumulator refilled several bytes at a time, so the
/// entropy decoder can `peek` a lookup-table index and `skip` the code
/// length it finds there. Every member is inline and the reader is a small
/// value: a hot loop can copy it into a local, keep its state in registers
/// and copy it back when done.
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
  }

  /// True once more bits have been consumed than the buffer holds.
  [[nodiscard]] bool overrun() const { return bits_consumed() > 8 * data_.size(); }
  [[nodiscard]] std::uint64_t bits_consumed() const {
    return 8 * byte_pos_ - static_cast<std::uint64_t>(acc_bits_);
  }

 private:
  /// Top the accumulator up to at least 57 valid bits: load the next eight
  /// bytes big-endian (zero past the end of the buffer) and count the whole
  /// bytes that fit. The partial byte below them is real data, re-read at
  /// the same position by the next refill. `byte_pos_` keeps counting past
  /// the end, so the consumed-bit count stays exact.
  void refill() {
    std::uint64_t word;
    if (data_.size() >= sizeof word && byte_pos_ <= data_.size() - sizeof word) {
      std::memcpy(&word, data_.data() + byte_pos_, sizeof word);
    } else {
      std::array<std::uint8_t, sizeof word> tail{};
      if (byte_pos_ < data_.size()) {
        std::memcpy(tail.data(), data_.data() + byte_pos_, data_.size() - byte_pos_);
      }
      std::memcpy(&word, tail.data(), sizeof word);
    }
    if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
    const int whole = (64 - acc_bits_) >> 3;
    acc_ |= word >> acc_bits_;
    byte_pos_ += static_cast<std::size_t>(whole);
    acc_bits_ += 8 * whole;
  }

  std::span<const std::uint8_t> data_;
  std::size_t byte_pos_ = 0;  // bytes loaded into acc_ so far, zero fill included
  std::uint64_t acc_ = 0;     // next unread bit in the most significant position
  int acc_bits_ = 0;          // valid bits at the top of acc_
};

}  // namespace sophon::codec
