// Fetch protocol messages.
//
// SOPHON's design step (d): "offloading directives for each sample are
// incorporated into data fetch requests to the storage server". A directive
// is simply the pipeline prefix length the storage node should execute
// before replying — 0 means "send the raw blob".
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace sophon::net {

/// Per-sample offloading instruction: run the first `prefix_len` pipeline
/// ops near storage and ship the result as it stands; the compute node runs
/// the rest. 0 ships the raw blob.
struct OffloadDirective {
  std::uint8_t prefix_len = 0;

  friend bool operator==(OffloadDirective, OffloadDirective) = default;
};

/// Client → storage: fetch one sample, optionally preprocessed. `epoch` and
/// `position` seed the storage-side augmentation RNG so a given (epoch,
/// sample) pair sees the same random crop/flip regardless of where the op
/// runs — preserving the training-accuracy argument of §3.3.
struct FetchRequest {
  std::uint64_t sample_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t position = 0;
  OffloadDirective directive;
};

/// Storage → client: the (possibly partially preprocessed) payload.
struct FetchResponse {
  /// How the storage node produced the payload — clients map this onto the
  /// traffic ledger's cause taxonomy (shard-hit vs live vs corrupt-refetch).
  enum class Provenance : std::uint8_t {
    kLive = 0,          ///< executed the pipeline prefix on the live blob
    kShard,             ///< served verbatim from a materialized shard frame
    kShardCorrupt,      ///< shard frame failed crc; re-served from the live path
  };

  std::uint64_t sample_id = 0;
  std::uint8_t stage = 0;  // pipeline stage of the payload
  Provenance provenance = Provenance::kLive;
  std::vector<std::uint8_t> payload;  // framed wire buffer (see net/wire.h)

  [[nodiscard]] Bytes wire_bytes() const {
    return Bytes(static_cast<std::int64_t>(payload.size()));
  }
};

}  // namespace sophon::net
