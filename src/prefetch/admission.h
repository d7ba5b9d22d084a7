// Admission policy: which upcoming samples are worth a prefetch credit.
//
// Samples the offload plan ships as tiny post-crop tensors, and samples
// whose known payload is below a threshold, transfer too quickly for
// look-ahead to hide anything: they are deprioritized, fetched only when a
// buffer credit is free anyway. Everything else is prefetched.
#pragma once

#include <cstdint>
#include <optional>

#include "prefetch/options.h"
#include "util/units.h"

namespace sophon::prefetch {

enum class Admission {
  kPrefetch,      ///< Worth a credit: reserve (blocking) and fetch ahead.
  kDeprioritize,  ///< Fetch only opportunistically (non-blocking reserve).
};

/// Decide for one sample. `expected_wire` is the exact payload size when the
/// caller knows it (the DES replay does); the real fetch path passes
/// std::nullopt and falls back to the directive-based heuristic.
[[nodiscard]] Admission admit(const PrefetchOptions& options, std::uint8_t prefix_len,
                              std::optional<Bytes> expected_wire);

}  // namespace sophon::prefetch
