#include "image/image.h"

#include "util/check.h"

namespace sophon::image {

namespace {
/// The byte count of a width x height x channels buffer, checked before
/// anything is allocated for it.
std::size_t checked_size(int width, int height, int channels) {
  SOPHON_CHECK(width > 0 && height > 0);
  SOPHON_CHECK(channels == 1 || channels == 3);
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
         static_cast<std::size_t>(channels);
}
}  // namespace

Image::Image(int width, int height, int channels)
    : width_(width),
      height_(height),
      channels_(channels),
      pixels_(checked_size(width, height, channels)) {}

Image::Image(int width, int height, int channels, std::vector<std::uint8_t> pixels)
    : width_(width), height_(height), channels_(channels), pixels_(std::move(pixels)) {
  SOPHON_CHECK_MSG(pixels_.size() == checked_size(width, height, channels),
                   "pixel buffer size must match dimensions");
}

std::uint8_t Image::at(int x, int y, int c) const {
  SOPHON_CHECK(x >= 0 && x < width_ && y >= 0 && y < height_ && c >= 0 && c < channels_);
  return pixels_[(static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                  static_cast<std::size_t>(x)) *
                     static_cast<std::size_t>(channels_) +
                 static_cast<std::size_t>(c)];
}

void Image::set(int x, int y, int c, std::uint8_t value) {
  SOPHON_CHECK(x >= 0 && x < width_ && y >= 0 && y < height_ && c >= 0 && c < channels_);
  pixels_[(static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x)) *
              static_cast<std::size_t>(channels_) +
          static_cast<std::size_t>(c)] = value;
}

Plane::Plane(int width, int height)
    : width_(width), height_(height), values_(checked_size(width, height, 1)) {}

std::uint8_t Plane::at(int x, int y) const {
  SOPHON_CHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
  return values_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
}

void Plane::set(int x, int y, std::uint8_t value) {
  SOPHON_CHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
  values_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x)] = value;
}

}  // namespace sophon::image
