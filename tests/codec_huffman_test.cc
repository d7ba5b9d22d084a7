#include "codec/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "util/check.h"
#include "util/rng.h"

namespace sophon::codec {
namespace {

TEST(HuffmanLengths, EmptyAlphabet) {
  const auto lengths = huffman_code_lengths({0, 0, 0});
  EXPECT_EQ(lengths, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(HuffmanLengths, SingleSymbolGetsLengthOne) {
  const auto lengths = huffman_code_lengths({0, 5, 0});
  EXPECT_EQ(lengths[1], 1);
  EXPECT_EQ(lengths[0], 0);
}

TEST(HuffmanLengths, TwoEqualSymbols) {
  const auto lengths = huffman_code_lengths({10, 10});
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 1);
}

TEST(HuffmanLengths, SkewedFrequenciesGetShorterCodes) {
  const auto lengths = huffman_code_lengths({1000, 10, 10, 10});
  EXPECT_LT(lengths[0], lengths[1]);
}

TEST(HuffmanLengths, KraftInequalityHolds) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freqs(300);
    for (auto& f : freqs) f = rng.bernoulli(0.3) ? 0 : static_cast<std::uint64_t>(
                                                           rng.uniform_int(1, 1000000));
    const int max_len = 16;
    const auto lengths = huffman_code_lengths(freqs, max_len);
    double kraft = 0.0;
    for (std::size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] > 0) {
        EXPECT_LE(lengths[s], max_len);
        kraft += std::pow(2.0, -static_cast<double>(lengths[s]));
      }
      if (freqs[s] == 0) {
        EXPECT_EQ(lengths[s], 0);
      }
      if (freqs[s] > 0) {
        EXPECT_GT(lengths[s], 0);
      }
    }
    EXPECT_LE(kraft, 1.0 + 1e-12);
  }
}

TEST(HuffmanLengths, LengthLimitRespectedUnderExtremeSkew) {
  // Fibonacci-like frequencies force deep trees without a limit.
  std::vector<std::uint64_t> freqs;
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const auto next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = huffman_code_lengths(freqs, 12);
  for (const auto len : lengths) EXPECT_LE(len, 12);
}

TEST(HuffmanRoundTrip, EncodesAndDecodesRandomStreams) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.uniform_int(0, 510));
    std::vector<std::uint64_t> freqs(alphabet, 0);
    std::vector<std::uint32_t> message;
    for (int i = 0; i < 2000; ++i) {
      // Zipf-ish skew.
      const auto sym = static_cast<std::uint32_t>(
          static_cast<std::size_t>(rng.uniform() * rng.uniform() * static_cast<double>(alphabet)) %
          alphabet);
      message.push_back(sym);
      ++freqs[sym];
    }
    const auto lengths = huffman_code_lengths(freqs);
    const HuffmanEncoder encoder(lengths);
    BitWriter w;
    for (const auto sym : message) encoder.encode(w, sym);
    const auto bytes = w.finish();

    const HuffmanDecoder decoder(lengths);
    BitReader r(bytes);
    for (const auto expected : message) {
      EXPECT_EQ(decoder.decode(r), expected);
    }
    EXPECT_FALSE(r.overrun());
  }
}

TEST(HuffmanRoundTrip, CompressionBeatsFixedWidthOnSkewedData) {
  std::vector<std::uint64_t> freqs(256, 1);
  freqs[0] = 100000;
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder encoder(lengths);
  BitWriter w;
  for (int i = 0; i < 10000; ++i) encoder.encode(w, 0);
  EXPECT_LT(w.bit_count(), 10000u * 8u / 2u);
}

TEST(HuffmanEncoder, RejectsSymbolWithoutCode) {
  const auto lengths = huffman_code_lengths({5, 0, 5});
  const HuffmanEncoder encoder(lengths);
  BitWriter w;
  EXPECT_THROW(encoder.encode(w, 1), ContractViolation);
  EXPECT_THROW(encoder.encode(w, 99), ContractViolation);
}

TEST(HuffmanDecoder, CorruptStreamReturnsInvalid) {
  // Codes: symbol 0 -> "0", symbol 1 -> "10" — "11..." is invalid only if
  // nothing maps there; craft lengths {1,2} leaving code space.
  const std::vector<std::uint8_t> lengths{1, 2};
  const HuffmanDecoder decoder(lengths);
  const std::vector<std::uint8_t> junk{0xff};  // starts with 11
  BitReader r(junk);
  EXPECT_EQ(decoder.decode(r), HuffmanDecoder::invalid_symbol());
}

/// The canonical first-code walk, one bit at a time: the reference that the
/// table-driven decoder must agree with symbol for symbol and bit for bit,
/// including on over-subscribed and incomplete tables.
class ReferenceWalk {
 public:
  explicit ReferenceWalk(const std::vector<std::uint8_t>& lengths) {
    for (const auto len : lengths) max_len_ = std::max<int>(max_len_, len);
    first_code_.assign(static_cast<std::size_t>(max_len_) + 1, 0);
    first_index_.assign(static_cast<std::size_t>(max_len_) + 1, 0);
    count_.assign(static_cast<std::size_t>(max_len_) + 1, 0);
    for (std::uint32_t s = 0; s < lengths.size(); ++s)
      if (lengths[s] > 0) sorted_.push_back(s);
    std::stable_sort(sorted_.begin(), sorted_.end(), [&lengths](std::uint32_t a, std::uint32_t b) {
      return lengths[a] < lengths[b];
    });
    for (const auto s : sorted_) ++count_[lengths[s]];
    std::uint32_t code = 0;
    std::uint32_t index = 0;
    for (int len = 1; len <= max_len_; ++len) {
      code <<= 1;
      first_code_[static_cast<std::size_t>(len)] = code;
      first_index_[static_cast<std::size_t>(len)] = index;
      code += count_[static_cast<std::size_t>(len)];
      index += count_[static_cast<std::size_t>(len)];
    }
  }

  std::uint32_t decode(BitReader& in) const {
    std::uint32_t code = 0;
    for (int len = 1; len <= max_len_; ++len) {
      code = (code << 1) | static_cast<std::uint32_t>(in.get(1));
      const auto l = static_cast<std::size_t>(len);
      if (count_[l] > 0 && code < first_code_[l] + count_[l] && code >= first_code_[l])
        return sorted_[first_index_[l] + (code - first_code_[l])];
    }
    return HuffmanDecoder::invalid_symbol();
  }

 private:
  int max_len_ = 0;
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> sorted_;
};

/// Decodes random bits with both decoders until well past the end of the
/// buffer; every symbol, every invalid_symbol() and every bit position must
/// agree.
void expect_matches_reference(const std::vector<std::uint8_t>& lengths, Rng& rng) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(rng.uniform_int(0, 256)));
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const HuffmanDecoder decoder(lengths);
  const ReferenceWalk reference(lengths);
  BitReader got(bits);
  BitReader want(bits);
  for (int i = 0; i < 4000 && want.bits_consumed() <= 8 * bits.size() + 64; ++i) {
    ASSERT_EQ(decoder.decode(got), reference.decode(want)) << "decode #" << i;
    ASSERT_EQ(got.bits_consumed(), want.bits_consumed()) << "decode #" << i;
    ASSERT_EQ(got.overrun(), want.overrun()) << "decode #" << i;
  }
}

TEST(HuffmanDecoder, MatchesCanonicalWalkOnLongCodes) {
  // Complete tables from the length limiter, skewed hard enough that many
  // codes run past the decoder's lookup width (up to the 20-bit cap).
  Rng rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.uniform_int(0, 510));
    std::vector<std::uint64_t> freqs(alphabet, 0);
    for (auto& f : freqs) {
      if (rng.bernoulli(0.2)) continue;
      f = std::uint64_t{1} << rng.uniform_int(0, 30);
    }
    freqs[0] = 1;
    freqs[1] = 1;
    const auto lengths = huffman_code_lengths(freqs, 20);
    expect_matches_reference(lengths, rng);
  }
}

TEST(HuffmanDecoder, MatchesCanonicalWalkOnCorruptTables) {
  // Arbitrary length tables as a corrupt header could carry them: over-
  // subscribed (some codes unreachable at their length, shorter codes
  // shadowing longer ones), incomplete, and mixing short and >10-bit codes.
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> lengths(512, 0);
    const auto used = rng.uniform_int(1, 80);
    const auto max_len = rng.uniform_int(1, 20);
    for (std::int64_t i = 0; i < used; ++i) {
      lengths[static_cast<std::size_t>(rng.uniform_int(0, 511))] =
          static_cast<std::uint8_t>(rng.uniform_int(1, max_len));
    }
    expect_matches_reference(lengths, rng);
  }
}

TEST(HuffmanDecoder, LiteralRunsMatchSingleDecodes) {
  // Every run `literals` reports must hold exactly the symbols, and end
  // after exactly the bits, of as many decode calls, and never the escape.
  // An empty run means the next code is the escape, longer than the lookup
  // width, or no code at all. Tables range from complete to corrupt.
  Rng rng(11);
  std::array<std::size_t, 5> by_count{};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> lengths(512, 0);
    const auto used = rng.uniform_int(1, 80);
    const auto max_len = rng.uniform_int(1, 14);
    for (std::int64_t i = 0; i < used; ++i) {
      lengths[static_cast<std::size_t>(rng.uniform_int(0, 511))] =
          static_cast<std::uint8_t>(rng.uniform_int(1, max_len));
    }
    const auto escape = static_cast<std::uint32_t>(rng.uniform_int(0, 511));
    const HuffmanDecoder decoder(lengths, escape);
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    BitReader stream(bits);
    for (int i = 0; i < 300 && stream.bits_consumed() <= 8 * bits.size() + 32; ++i) {
      BitReader peeked = stream;
      const auto& run = decoder.literals(peeked);
      ASSERT_EQ(peeked.bits_consumed(), stream.bits_consumed());
      ASSERT_LE(run.count, 4u);
      ++by_count[run.count];
      BitReader single = stream;
      for (std::size_t k = 0; k < run.count; ++k) {
        ASSERT_EQ(run.symbols[k], decoder.decode(single)) << "trial " << trial << " k " << k;
        ASSERT_NE(run.symbols[k], escape);
        ASSERT_EQ(run.ends[k], single.bits_consumed() - stream.bits_consumed());
        ASSERT_LE(run.ends[k], 10u);
      }
      if (run.count == 0) {
        const auto sym = decoder.decode(single);
        const auto bits_read = single.bits_consumed() - stream.bits_consumed();
        ASSERT_TRUE(sym == escape || sym == HuffmanDecoder::invalid_symbol() || bits_read > 10)
            << "trial " << trial;
      }
      stream = single;
    }
  }
  for (std::size_t n = 0; n <= 4; ++n) EXPECT_GT(by_count[n], 50u) << n << " literals";
}

TEST(HuffmanDecoder, EmptyTableDecodesNothing) {
  const HuffmanDecoder decoder(std::vector<std::uint8_t>(16, 0));
  const std::vector<std::uint8_t> bytes{0x00, 0xff};
  BitReader r(bytes);
  EXPECT_EQ(decoder.decode(r), HuffmanDecoder::invalid_symbol());
  EXPECT_EQ(r.bits_consumed(), 0u);
}

TEST(CodeLengthSerialisation, RoundTripsSparseTables) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> lengths(512, 0);
    for (int i = 0; i < 40; ++i) {
      lengths[static_cast<std::size_t>(rng.uniform_int(0, 511))] =
          static_cast<std::uint8_t>(rng.uniform_int(1, 20));
    }
    BitWriter w;
    write_code_lengths(w, lengths);
    const auto bytes = w.finish();
    BitReader r(bytes);
    EXPECT_EQ(read_code_lengths(r, 512), lengths);
  }
}

TEST(CodeLengthSerialisation, AllZeroTableIsCompact) {
  std::vector<std::uint8_t> lengths(512, 0);
  BitWriter w;
  write_code_lengths(w, lengths);
  const auto bytes = w.finish();
  EXPECT_LE(bytes.size(), 4u);  // two 9-bit run tokens
  BitReader r(bytes);
  EXPECT_EQ(read_code_lengths(r, 512), lengths);
}

}  // namespace
}  // namespace sophon::codec
