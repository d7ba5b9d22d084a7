#include "codec/bitio.h"

#include "util/check.h"

namespace sophon::codec {

void BitWriter::put(std::uint64_t bits, int count) {
  SOPHON_CHECK(count >= 0 && count <= 57);
  if (count == 0) return;
  if (count < 64) bits &= (std::uint64_t{1} << count) - 1;
  acc_ = (acc_ << count) | bits;
  acc_bits_ += count;
  bit_count_ += static_cast<std::uint64_t>(count);
  while (acc_bits_ >= 8) {
    acc_bits_ -= 8;
    bytes_.push_back(static_cast<std::uint8_t>(acc_ >> acc_bits_));
  }
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (acc_bits_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8 - acc_bits_)));
    acc_bits_ = 0;
  }
  acc_ = 0;
  return std::move(bytes_);
}

void BitReader::refill() {
  if (byte_pos_ + 8 <= data_.size()) {
    // Load eight bytes big-endian and count the whole bytes that fit (57 to
    // 64 valid bits); the partial byte below them is real data, re-read at
    // the same position by the next refill.
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < 8; ++i) word = (word << 8) | data_[byte_pos_ + i];
    const int bytes = (64 - acc_bits_) >> 3;
    acc_ |= word >> acc_bits_;
    byte_pos_ += static_cast<std::size_t>(bytes);
    acc_bits_ += 8 * bytes;
    return;
  }
  while (acc_bits_ <= 56) {
    const std::uint64_t byte = byte_pos_ < data_.size() ? data_[byte_pos_++] : 0;
    acc_ |= byte << (56 - acc_bits_);
    acc_bits_ += 8;
  }
}

}  // namespace sophon::codec
