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

}  // namespace sophon::codec
