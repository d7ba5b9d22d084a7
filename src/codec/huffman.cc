#include "codec/huffman.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/check.h"

namespace sophon::codec {

namespace {

struct Node {
  std::uint64_t freq;
  std::int32_t symbol;  // -1 for internal
  std::int32_t left = -1;
  std::int32_t right = -1;
};

void assign_depths(const std::vector<Node>& nodes, std::int32_t root,
                   std::vector<std::uint8_t>& lengths) {
  // Iterative DFS; depth of each leaf is its code length.
  std::vector<std::pair<std::int32_t, int>> stack{{root, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    if (n.symbol >= 0) {
      lengths[static_cast<std::size_t>(n.symbol)] =
          static_cast<std::uint8_t>(std::max(depth, 1));
      continue;
    }
    stack.emplace_back(n.left, depth + 1);
    stack.emplace_back(n.right, depth + 1);
  }
}

/// Kraft sum scaled by 2^max_length.
std::uint64_t kraft_sum(const std::vector<std::uint8_t>& lengths, int max_length) {
  std::uint64_t sum = 0;
  for (const auto len : lengths)
    if (len > 0) sum += std::uint64_t{1} << (max_length - len);
  return sum;
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(const std::vector<std::uint64_t>& freqs,
                                               int max_length) {
  SOPHON_CHECK(max_length >= 1 && max_length <= 32);
  std::vector<std::uint8_t> lengths(freqs.size(), 0);

  std::vector<Node> nodes;
  nodes.reserve(freqs.size() * 2);
  // Min-heap of node indices ordered by (freq, index) for determinism.
  auto cmp = [&nodes](std::int32_t a, std::int32_t b) {
    const auto& na = nodes[static_cast<std::size_t>(a)];
    const auto& nb = nodes[static_cast<std::size_t>(b)];
    if (na.freq != nb.freq) return na.freq > nb.freq;
    return a > b;
  };
  std::priority_queue<std::int32_t, std::vector<std::int32_t>, decltype(cmp)> heap(cmp);

  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] > 0) {
      nodes.push_back({freqs[s], static_cast<std::int32_t>(s)});
      heap.push(static_cast<std::int32_t>(nodes.size() - 1));
    }
  }
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return lengths;
  }

  while (heap.size() > 1) {
    const std::int32_t a = heap.top();
    heap.pop();
    const std::int32_t b = heap.top();
    heap.pop();
    nodes.push_back({nodes[static_cast<std::size_t>(a)].freq + nodes[static_cast<std::size_t>(b)].freq,
                     -1, a, b});
    heap.push(static_cast<std::int32_t>(nodes.size() - 1));
  }
  assign_depths(nodes, heap.top(), lengths);

  // Length-limit: clamp over-deep codes, then restore the Kraft equality by
  // deepening the shallowest candidates until the sum fits, then shortening
  // codes where there is slack. Deterministic and always terminates.
  for (auto& len : lengths)
    if (len > max_length) len = static_cast<std::uint8_t>(max_length);

  const std::uint64_t budget = std::uint64_t{1} << max_length;
  std::uint64_t sum = kraft_sum(lengths, max_length);
  // Over-subscribed: deepen the longest non-max codes (cheapest fix first).
  while (sum > budget) {
    // Find the symbol with the longest length < max_length; deepening it by
    // one reduces the sum the least… we instead deepen the *shortest* such
    // overweight contributor to converge fast: pick any symbol with
    // len < max_length and maximal len.
    std::size_t best = lengths.size();
    int best_len = -1;
    for (std::size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] > 0 && lengths[s] < max_length && lengths[s] > best_len) {
        best_len = lengths[s];
        best = s;
      }
    }
    SOPHON_CHECK_MSG(best < lengths.size(), "cannot satisfy Kraft inequality");
    sum -= std::uint64_t{1} << (max_length - lengths[best]);
    ++lengths[best];
    sum += std::uint64_t{1} << (max_length - lengths[best]);
  }
  SOPHON_CHECK(kraft_sum(lengths, max_length) <= budget);
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<std::uint8_t>& lengths)
    : lengths_(lengths), codes_(lengths.size(), 0) {
  // Canonical assignment: sort symbols by (length, symbol), assign
  // incrementing codes, left-shifting when the length grows.
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < lengths_.size(); ++s)
    if (lengths_[s] > 0) symbols.push_back(s);
  std::sort(symbols.begin(), symbols.end(), [this](std::uint32_t a, std::uint32_t b) {
    if (lengths_[a] != lengths_[b]) return lengths_[a] < lengths_[b];
    return a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (const auto s : symbols) {
    code <<= (lengths_[s] - prev_len);
    codes_[s] = code;
    ++code;
    prev_len = lengths_[s];
  }
}

void HuffmanEncoder::encode(BitWriter& out, std::uint32_t symbol) const {
  SOPHON_CHECK(symbol < lengths_.size());
  SOPHON_CHECK_MSG(lengths_[symbol] > 0, "symbol has no code");
  out.put(codes_[symbol], lengths_[symbol]);
}

HuffmanDecoder::HuffmanDecoder(const std::vector<std::uint8_t>& lengths) {
  for (const auto len : lengths) max_len_ = std::max<int>(max_len_, len);
  first_code_.assign(static_cast<std::size_t>(max_len_) + 1, 0);
  first_index_.assign(static_cast<std::size_t>(max_len_) + 1, 0);
  count_.assign(static_cast<std::size_t>(max_len_) + 1, 0);

  for (std::uint32_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > 0) sorted_symbols_.push_back(s);
  std::sort(sorted_symbols_.begin(), sorted_symbols_.end(),
            [&lengths](std::uint32_t a, std::uint32_t b) {
              if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
              return a < b;
            });
  for (const auto s : sorted_symbols_) ++count_[lengths[s]];

  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int len = 1; len <= max_len_; ++len) {
    code <<= 1;
    first_code_[static_cast<std::size_t>(len)] = code;
    first_index_[static_cast<std::size_t>(len)] = index;
    code += count_[static_cast<std::size_t>(len)];
    index += count_[static_cast<std::size_t>(len)];
  }

  // Fill shortest lengths first and never overwrite, so where an
  // over-subscribed table makes codes overlap the walk's first match wins.
  // Codes at or past 1 << len cannot be read in len bits; skip them.
  table_.assign(std::size_t{1} << kTableBits, Entry{});
  for (int len = 1; len <= std::min(max_len_, kTableBits); ++len) {
    const auto l = static_cast<std::size_t>(len);
    const std::uint64_t first = first_code_[l];
    const std::uint64_t end = std::min<std::uint64_t>(first + count_[l], std::uint64_t{1} << len);
    const int spread = kTableBits - len;
    for (std::uint64_t c = first; c < end; ++c) {
      const Entry entry{sorted_symbols_[first_index_[l] + (c - first)],
                        static_cast<std::uint8_t>(len)};
      for (std::uint64_t i = c << spread; i < (c + 1) << spread; ++i) {
        if (table_[i].length == 0) table_[i] = entry;
      }
    }
  }
}

std::uint32_t HuffmanDecoder::decode_long(BitReader& in) const {
  // No code of up to kTableBits bits matched; the walk would have read them
  // all. Continue it from there.
  const int prefix = std::min(max_len_, kTableBits);
  auto code = static_cast<std::uint32_t>(in.peek(prefix));
  in.skip(prefix);
  for (int len = prefix + 1; len <= max_len_; ++len) {
    code = (code << 1) | static_cast<std::uint32_t>(in.get_bit());
    const auto l = static_cast<std::size_t>(len);
    if (count_[l] > 0 && code < first_code_[l] + count_[l] && code >= first_code_[l]) {
      return sorted_symbols_[first_index_[l] + (code - first_code_[l])];
    }
  }
  return invalid_symbol();
}

void write_code_lengths(BitWriter& out, const std::vector<std::uint8_t>& lengths) {
  // Format: for each position, either bit 1 + 5-bit length, or bit 0 +
  // 8-bit zero-run length (1..256 encoded as 0..255).
  std::size_t i = 0;
  while (i < lengths.size()) {
    if (lengths[i] == 0) {
      std::size_t run = 1;
      while (i + run < lengths.size() && lengths[i + run] == 0 && run < 256) ++run;
      out.put(0, 1);
      out.put(run - 1, 8);
      i += run;
    } else {
      out.put(1, 1);
      out.put(lengths[i], 5);
      ++i;
    }
  }
}

std::vector<std::uint8_t> read_code_lengths(BitReader& in, std::size_t alphabet) {
  std::vector<std::uint8_t> lengths(alphabet, 0);
  std::size_t i = 0;
  while (i < alphabet && !in.overrun()) {
    if (in.get_bit() == 1) {
      lengths[i++] = static_cast<std::uint8_t>(in.get(5));
    } else {
      const auto run = static_cast<std::size_t>(in.get(8)) + 1;
      i += run;  // zero run; lengths already zero-initialised
    }
  }
  return lengths;
}

}  // namespace sophon::codec
