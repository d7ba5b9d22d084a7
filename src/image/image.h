// In-memory raster image: interleaved uint8, HWC layout — the representation
// a sample takes after the Decode stage of the preprocessing pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace sophon::image {

/// Axis-aligned rectangle in pixel coordinates: a crop, or the region of an
/// image a decode or a merge produces.
struct CropRect {
  int x = 0;
  int y = 0;
  int width = 0;
  int height = 0;
};

/// Interleaved uint8 image, height-major (HWC). Value type: cheap to move,
/// explicit to copy. Invariant: data().size() == width*height*channels.
class Image {
 public:
  Image() = default;

  /// Construct a zero-filled image. Dimensions must be positive and
  /// channels 1 or 3.
  Image(int width, int height, int channels);

  /// Construct taking ownership of pixel data (size must match).
  Image(int width, int height, int channels, std::vector<std::uint8_t> pixels);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int channels() const { return channels_; }
  [[nodiscard]] bool empty() const { return pixels_.empty(); }
  [[nodiscard]] std::int64_t pixel_count() const {
    return static_cast<std::int64_t>(width_) * height_;
  }

  /// Size of the raw pixel payload — what this representation costs on the
  /// wire (1 byte per channel sample, as in the paper's analysis).
  [[nodiscard]] Bytes byte_size() const { return Bytes(static_cast<std::int64_t>(pixels_.size())); }

  [[nodiscard]] std::uint8_t at(int x, int y, int c) const;
  void set(int x, int y, int c, std::uint8_t value);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return pixels_; }
  [[nodiscard]] std::vector<std::uint8_t>& data() { return pixels_; }

  friend bool operator==(const Image& a, const Image& b) = default;

 private:
  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// A single-channel plane of arbitrary integral content, used by the codec
/// for luma/chroma working storage.
class Plane {
 public:
  Plane() = default;
  Plane(int width, int height);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  [[nodiscard]] std::uint8_t at(int x, int y) const;
  void set(int x, int y, std::uint8_t value);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return values_; }
  [[nodiscard]] std::vector<std::uint8_t>& data() { return values_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> values_;
};

}  // namespace sophon::image
