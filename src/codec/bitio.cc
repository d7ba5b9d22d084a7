#include "codec/bitio.h"

#include <algorithm>

namespace sophon::codec {

void BitWriter::grow() {
  bytes_.resize(std::max(2 * bytes_.size(), used_ + sizeof(std::uint64_t)));
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (acc_bits_ > 0) put(0, 8 - acc_bits_);
  bytes_.resize(used_);
  used_ = 0;
  acc_ = 0;
  return std::move(bytes_);
}

}  // namespace sophon::codec
