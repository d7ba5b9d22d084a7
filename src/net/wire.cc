#include "net/wire.h"

#include "net/message.h"

#include <cstring>

#include "util/check.h"

namespace sophon::net {

namespace {

// Layout: [tag u8][width u32][height u32][channels u8][payload_len u32]
// padded to kFrameOverheadBytes, then the payload bytes.
constexpr std::size_t kHeaderBytes = static_cast<std::size_t>(kFrameOverheadBytes);

void put_u32(std::vector<std::uint8_t>& out, std::size_t at, std::uint32_t v) {
  out[at] = static_cast<std::uint8_t>(v >> 24);
  out[at + 1] = static_cast<std::uint8_t>(v >> 16);
  out[at + 2] = static_cast<std::uint8_t>(v >> 8);
  out[at + 3] = static_cast<std::uint8_t>(v);
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  return (static_cast<std::uint32_t>(in[at]) << 24) |
         (static_cast<std::uint32_t>(in[at + 1]) << 16) |
         (static_cast<std::uint32_t>(in[at + 2]) << 8) | static_cast<std::uint32_t>(in[at + 3]);
}

}  // namespace

std::vector<std::uint8_t> serialize_sample(const pipeline::SampleData& data) {
  std::vector<std::uint8_t> out(kHeaderBytes, 0);
  out[0] = static_cast<std::uint8_t>(pipeline::sample_repr(data));

  if (const auto* blob = std::get_if<pipeline::EncodedBlob>(&data)) {
    put_u32(out, 10, static_cast<std::uint32_t>(blob->bytes.size()));
    out.insert(out.end(), blob->bytes.begin(), blob->bytes.end());
    return out;
  }
  if (const auto* img = std::get_if<image::Image>(&data)) {
    put_u32(out, 1, static_cast<std::uint32_t>(img->width()));
    put_u32(out, 5, static_cast<std::uint32_t>(img->height()));
    out[9] = static_cast<std::uint8_t>(img->channels());
    put_u32(out, 10, static_cast<std::uint32_t>(img->data().size()));
    out.insert(out.end(), img->data().begin(), img->data().end());
    return out;
  }
  const auto& tensor = std::get<image::Tensor>(data);
  put_u32(out, 1, static_cast<std::uint32_t>(tensor.width()));
  put_u32(out, 5, static_cast<std::uint32_t>(tensor.height()));
  out[9] = static_cast<std::uint8_t>(tensor.channels());
  const auto payload_bytes = tensor.data().size() * sizeof(float);
  put_u32(out, 10, static_cast<std::uint32_t>(payload_bytes));
  const auto offset = out.size();
  out.resize(offset + payload_bytes);
  std::memcpy(out.data() + offset, tensor.data().data(), payload_bytes);
  return out;
}

std::optional<pipeline::SampleData> deserialize_sample(std::span<const std::uint8_t> buffer) {
  if (buffer.size() < kHeaderBytes) return std::nullopt;
  const auto tag = buffer[0];
  const auto width = static_cast<int>(get_u32(buffer, 1));
  const auto height = static_cast<int>(get_u32(buffer, 5));
  const auto channels = static_cast<int>(buffer[9]);
  const auto payload_len = static_cast<std::size_t>(get_u32(buffer, 10));
  if (buffer.size() != kHeaderBytes + payload_len) return std::nullopt;
  const auto payload = buffer.subspan(kHeaderBytes);

  switch (static_cast<pipeline::Repr>(tag)) {
    case pipeline::Repr::kEncoded: {
      pipeline::EncodedBlob blob;
      blob.bytes.assign(payload.begin(), payload.end());
      return pipeline::SampleData(std::move(blob));
    }
    case pipeline::Repr::kImage: {
      if (width <= 0 || height <= 0 || (channels != 1 && channels != 3)) return std::nullopt;
      const auto expected = static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
                            static_cast<std::size_t>(channels);
      if (payload_len != expected) return std::nullopt;
      std::vector<std::uint8_t> pixels(payload.begin(), payload.end());
      return pipeline::SampleData(image::Image(width, height, channels, std::move(pixels)));
    }
    case pipeline::Repr::kTensor: {
      if (width <= 0 || height <= 0 || channels <= 0) return std::nullopt;
      const auto elements = static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
                            static_cast<std::size_t>(channels);
      if (payload_len != elements * sizeof(float)) return std::nullopt;
      image::Tensor tensor(channels, height, width);
      std::memcpy(tensor.data().data(), payload.data(), payload_len);
      return pipeline::SampleData(std::move(tensor));
    }
    default:
      return std::nullopt;
  }
}

Bytes wire_size(const pipeline::SampleShape& shape) {
  return shape.byte_size() + Bytes(kFrameOverheadBytes);
}

std::optional<pipeline::SampleData> unpack_response(const FetchResponse& response) {
  return deserialize_sample(response.payload);
}

}  // namespace sophon::net
