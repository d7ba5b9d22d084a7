#include "prefetch/admission.h"

namespace sophon::prefetch {

Admission admit(const PrefetchOptions& options, std::uint8_t prefix_len,
                std::optional<Bytes> expected_wire) {
  if (expected_wire.has_value()) {
    if (options.deprioritize_below.count() > 0 && *expected_wire <= options.deprioritize_below) {
      return Admission::kDeprioritize;
    }
    return Admission::kPrefetch;
  }
  // No size knowledge (real fetch path): an offloaded sample arrives as a
  // post-crop tensor, typically orders of magnitude smaller than the blob.
  if (options.deprioritize_offloaded && prefix_len > 0) {
    return Admission::kDeprioritize;
  }
  return Admission::kPrefetch;
}

}  // namespace sophon::prefetch
