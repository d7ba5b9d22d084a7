#include "codec/bitio.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

namespace sophon::codec {
namespace {

TEST(BitIo, SingleByteRoundTrip) {
  BitWriter w;
  w.put(0b1011, 4);
  w.put(0b0101, 4);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110101);

  BitReader r(bytes);
  EXPECT_EQ(r.get(4), 0b1011u);
  EXPECT_EQ(r.get(4), 0b0101u);
  EXPECT_FALSE(r.overrun());
}

TEST(BitIo, PartialBytePadsWithZeros) {
  BitWriter w;
  w.put(0b111, 3);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b11100000);
}

TEST(BitIo, BitCountExcludesPadding) {
  BitWriter w;
  w.put(0x3, 2);
  w.put(0x1ff, 9);
  EXPECT_EQ(w.bit_count(), 11u);
}

TEST(BitIo, MaskingOfExtraHighBits) {
  BitWriter w;
  w.put(0xffffffffffffffffULL, 4);  // only low 4 bits should land
  w.put(0, 4);
  const auto bytes = w.finish();
  EXPECT_EQ(bytes[0], 0xf0);
}

TEST(BitIo, ReadPastEndSetsOverrun) {
  BitWriter w;
  w.put(0xab, 8);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.get(8), 0xabu);
  EXPECT_FALSE(r.overrun());
  EXPECT_EQ(r.get(8), 0u);  // zero-filled
  EXPECT_TRUE(r.overrun());
}

TEST(BitIo, GetBit) {
  BitWriter w;
  w.put(0b10, 2);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bit(), 1);
  EXPECT_EQ(r.get_bit(), 0);
  EXPECT_EQ(r.bits_consumed(), 2u);
}

TEST(BitIo, PeekDoesNotConsume) {
  const std::vector<std::uint8_t> bytes{0b10110100, 0b01111000};
  BitReader r(bytes);
  EXPECT_EQ(r.peek(3), 0b101u);
  EXPECT_EQ(r.peek(3), 0b101u);
  EXPECT_EQ(r.bits_consumed(), 0u);
  EXPECT_EQ(r.get(2), 0b10u);
  EXPECT_EQ(r.peek(6), 0b110100u);
  r.skip(5);
  EXPECT_EQ(r.bits_consumed(), 7u);
  EXPECT_EQ(r.get_bit(), 0);
  EXPECT_EQ(r.peek(0), 0u);
  EXPECT_EQ(r.get(5), 0b01111u);
  EXPECT_FALSE(r.overrun());
}

TEST(BitIo, OverrunStartsOneBitPastTheEnd) {
  const std::vector<std::uint8_t> bytes{0xde, 0xad, 0xbe};
  BitReader r(bytes);
  EXPECT_EQ(r.get(23), 0xde'ad'beu >> 1);
  r.skip(1);
  EXPECT_EQ(r.bits_consumed(), 24u);
  EXPECT_FALSE(r.overrun());  // consumed exactly 8 x size
  EXPECT_EQ(r.peek(8), 0u);
  EXPECT_FALSE(r.overrun());
  r.skip(1);
  EXPECT_TRUE(r.overrun());
  EXPECT_EQ(r.get(57), 0u);
  EXPECT_TRUE(r.overrun());
}

TEST(BitIo, PeekPastEndZeroFillsWithoutOverrun) {
  const std::vector<std::uint8_t> bytes{0xff};
  BitReader r(bytes);
  r.skip(4);
  EXPECT_EQ(r.peek(12), 0xf00u);  // four real ones, then zero fill
  EXPECT_EQ(r.peek(57), std::uint64_t{0xf} << 53);
  EXPECT_FALSE(r.overrun());
  EXPECT_EQ(r.bits_consumed(), 4u);
  BitReader empty({});
  EXPECT_EQ(empty.peek(10), 0u);
  EXPECT_FALSE(empty.overrun());
  EXPECT_EQ(empty.get_bit(), 0);
  EXPECT_TRUE(empty.overrun());
}

TEST(BitIo, PeekAndSkipRejectOversizedGroups) {
  BitReader r({});
  EXPECT_THROW((void)r.peek(58), ContractViolation);
  EXPECT_THROW(r.skip(58), ContractViolation);
  EXPECT_THROW(r.skip(-1), ContractViolation);
}

TEST(BitIo, MixedPeekSkipGetMatchesBitString) {
  // Random buffers, short enough that the bulk and byte-wise refills both
  // run and reads cross the end; every read is checked against the bit
  // string, and overrun() against the consumed count.
  Rng rng(78);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(rng.uniform_int(0, 40)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto bit_at = [&bytes](std::uint64_t i) -> std::uint64_t {
      return i < 8 * bytes.size() ? (bytes[i / 8] >> (7 - i % 8)) & 1u : 0u;
    };
    BitReader r(bytes);
    std::uint64_t pos = 0;
    while (pos < 8 * bytes.size() + 120) {
      const int count = static_cast<int>(rng.uniform_int(0, 57));
      std::uint64_t want = 0;
      for (int i = 0; i < count; ++i) {
        want = (want << 1) | bit_at(pos + static_cast<std::uint64_t>(i));
      }
      switch (rng.uniform_int(0, 2)) {
        case 0:
          ASSERT_EQ(r.peek(count), want);
          break;
        case 1:
          r.skip(count);
          pos += static_cast<std::uint64_t>(count);
          break;
        default:
          ASSERT_EQ(r.get(count), want);
          pos += static_cast<std::uint64_t>(count);
          break;
      }
      ASSERT_EQ(r.bits_consumed(), pos);
      ASSERT_EQ(r.overrun(), pos > 8 * bytes.size());
    }
  }
}

TEST(BitIo, RejectsOversizedGroups) {
  BitWriter w;
  EXPECT_THROW(w.put(0, 58), ContractViolation);
  BitReader r({});
  EXPECT_THROW((void)r.get(58), ContractViolation);
  EXPECT_THROW((void)r.get(-1), ContractViolation);
}

TEST(BitIo, RandomRoundTripProperty) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter w;
    std::vector<std::pair<std::uint64_t, int>> groups;
    for (int i = 0; i < 200; ++i) {
      const int count = static_cast<int>(rng.uniform_int(1, 57));
      const std::uint64_t value =
          rng.next() & ((count < 64) ? ((1ULL << count) - 1) : ~0ULL);
      groups.emplace_back(value, count);
      w.put(value, count);
    }
    const auto bytes = w.finish();
    BitReader r(bytes);
    for (const auto& [value, count] : groups) {
      EXPECT_EQ(r.get(count), value);
    }
    EXPECT_FALSE(r.overrun());
  }
}

}  // namespace
}  // namespace sophon::codec
