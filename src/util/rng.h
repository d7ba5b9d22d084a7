// Deterministic random number generation.
//
// Everything in this repo that is "random" — synthetic image content, dataset
// catalogs, shuffling, augmentation — must be reproducible from a seed so the
// benchmark harness regenerates identical tables run-to-run. We therefore use
// our own small generators (SplitMix64 for seeding / key derivation,
// xoshiro256** for streams) instead of std::mt19937, whose distributions are
// not portable across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace sophon {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used to derive independent
/// seeds and to hash (seed, key) pairs into stable per-object streams.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mix a base seed with a stream key so distinct keys yield statistically
/// independent generators (e.g. one stream per sample id).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t key);

/// Mix a base seed with a string label (e.g. "shuffle", "augment").
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::string_view label);

/// xoshiro256** 1.0 — fast, 256-bit state, passes BigCrush. Satisfies
/// UniformRandomBitGenerator so it also plugs into <random> if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits → double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with probability `p` of returning true.
  bool bernoulli(double p);

  /// Standard normal via Box–Muller (deterministic; caches the spare value).
  double normal();
  double normal(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)). Natural fit for file-size distributions.
  double lognormal(double mu, double sigma);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace sophon
