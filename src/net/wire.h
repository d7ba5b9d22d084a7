// Wire serialisation of sample payloads.
//
// The on-wire encoding defines the data-traffic numbers everything else
// reports, so it is the single source of truth for "how many bytes does a
// sample at stage k cost": an encoded blob travels as-is, a decoded image as
// 1 byte per channel sample, a tensor as 4 bytes per element — exactly the
// size semantics of the paper's Figure 1a.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pipeline/sample.h"
#include "util/units.h"

namespace sophon::net {

/// Fixed framing overhead per message (tag, dimensions, lengths). Small by
/// design — gRPC framing is likewise negligible next to payloads.
inline constexpr std::int64_t kFrameOverheadBytes = 16;

/// Serialise a payload into a framed wire buffer.
[[nodiscard]] std::vector<std::uint8_t> serialize_sample(const pipeline::SampleData& data);

/// Parse a framed wire buffer. Returns nullopt on malformed input.
[[nodiscard]] std::optional<pipeline::SampleData> deserialize_sample(
    std::span<const std::uint8_t> buffer);

/// Analytic wire size of a sample with the given shape (payload + framing).
/// Matches serialize_sample(...).size() for materialised data of that shape.
[[nodiscard]] Bytes wire_size(const pipeline::SampleShape& shape);

/// Client-side unpacking of a fetch response: deserialises its frame into
/// the sample at the response's stage. nullopt on malformed data.
[[nodiscard]] std::optional<pipeline::SampleData> unpack_response(
    const struct FetchResponse& response);

}  // namespace sophon::net
