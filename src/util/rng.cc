#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace sophon {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t key) {
  SplitMix64 mixer(base ^ (key * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL));
  // Burn one output so base and derived streams do not share a prefix.
  mixer.next();
  return mixer.next();
}

std::uint64_t derive_seed(std::uint64_t base, std::string_view label) {
  // FNV-1a over the label, then mix with the base seed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return derive_seed(base, h);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 mixer(seed);
  for (auto& word : s_) word = mixer.next();
}

double Rng::uniform(double lo, double hi) {
  SOPHON_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SOPHON_CHECK(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full 64-bit span
  // Debiased modulo via rejection sampling.
  const std::uint64_t limit = ~static_cast<std::uint64_t>(0) - (~static_cast<std::uint64_t>(0) % range);
  std::uint64_t draw = next();
  while (draw >= limit) draw = next();
  return lo + static_cast<std::int64_t>(draw % range);
}

bool Rng::bernoulli(double p) {
  return uniform() < p;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();  // avoid log(0)
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  spare_ = mag * std::sin(kTwoPi * u2);
  has_spare_ = true;
  return mag * std::cos(kTwoPi * u2);
}

double Rng::normal(double mean, double stddev) {
  SOPHON_CHECK(stddev >= 0.0);
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

}  // namespace sophon
