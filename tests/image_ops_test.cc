#include "image/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace sophon::image {
namespace {

Image gradient_image(int w, int h) {
  Image img(w, h, 3);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < 3; ++c)
        img.set(x, y, c, static_cast<std::uint8_t>((x * 3 + y * 5 + c * 11) % 256));
  return img;
}

TEST(Crop, ExtractsExactRegion) {
  const auto img = gradient_image(10, 8);
  const auto out = crop(img, {2, 3, 4, 2});
  EXPECT_EQ(out.width(), 4);
  EXPECT_EQ(out.height(), 2);
  for (int y = 0; y < 2; ++y)
    for (int x = 0; x < 4; ++x)
      for (int c = 0; c < 3; ++c) EXPECT_EQ(out.at(x, y, c), img.at(x + 2, y + 3, c));
}

TEST(Crop, FullImageIsIdentity) {
  const auto img = gradient_image(6, 5);
  EXPECT_EQ(crop(img, {0, 0, 6, 5}), img);
}

TEST(Crop, RejectsOutOfBounds) {
  const auto img = gradient_image(4, 4);
  EXPECT_THROW((void)crop(img, {2, 2, 3, 1}), ContractViolation);
  EXPECT_THROW((void)crop(img, {-1, 0, 2, 2}), ContractViolation);
  EXPECT_THROW((void)crop(img, {0, 0, 0, 2}), ContractViolation);
}

TEST(Resize, IdentityWhenSameSize) {
  const auto img = gradient_image(16, 12);
  const auto out = resize_bilinear(img, 16, 12);
  EXPECT_EQ(out, img);
}

TEST(Resize, ConstantImageStaysConstant) {
  Image img(8, 8, 3);
  for (auto& px : img.data()) px = 137;
  const auto out = resize_bilinear(img, 224, 224);
  for (const auto px : out.data()) EXPECT_EQ(px, 137);
}

TEST(Resize, OutputDimensions) {
  const auto img = gradient_image(100, 60);
  const auto out = resize_bilinear(img, 224, 224);
  EXPECT_EQ(out.width(), 224);
  EXPECT_EQ(out.height(), 224);
  EXPECT_EQ(out.channels(), 3);
}

TEST(Resize, DownscalePreservesMeanApproximately) {
  const auto img = gradient_image(128, 128);
  const auto out = resize_bilinear(img, 32, 32);
  auto mean = [](const Image& im) {
    double sum = 0.0;
    for (const auto px : im.data()) sum += px;
    return sum / static_cast<double>(im.data().size());
  };
  EXPECT_NEAR(mean(out), mean(img), 3.0);
}

TEST(Resize, RejectsBadTarget) {
  const auto img = gradient_image(4, 4);
  EXPECT_THROW((void)resize_bilinear(img, 0, 10), ContractViolation);
  EXPECT_THROW((void)resize_bilinear(Image{}, 4, 4), ContractViolation);
}

TEST(Flip, IsInvolution) {
  const auto img = gradient_image(11, 7);
  EXPECT_EQ(horizontal_flip(horizontal_flip(img)), img);
}

TEST(Flip, MirrorsColumns) {
  const auto img = gradient_image(5, 3);
  const auto out = horizontal_flip(img);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 5; ++x)
      for (int c = 0; c < 3; ++c) EXPECT_EQ(out.at(x, y, c), img.at(4 - x, y, c));
}

TEST(ResizedCropRect, StaysInBounds) {
  Rng rng(21);
  for (int trial = 0; trial < 500; ++trial) {
    const int w = static_cast<int>(rng.uniform_int(64, 4000));
    const int h = static_cast<int>(rng.uniform_int(64, 3000));
    const auto rect = sample_resized_crop_rect(w, h, rng);
    EXPECT_GE(rect.x, 0);
    EXPECT_GE(rect.y, 0);
    EXPECT_GT(rect.width, 0);
    EXPECT_GT(rect.height, 0);
    EXPECT_LE(rect.x + rect.width, w);
    EXPECT_LE(rect.y + rect.height, h);
  }
}

TEST(ResizedCropRect, AreaWithinScaleBounds) {
  Rng rng(22);
  const int w = 1000;
  const int h = 800;
  for (int trial = 0; trial < 200; ++trial) {
    const auto rect = sample_resized_crop_rect(w, h, rng, 0.2, 0.8);
    const double frac =
        static_cast<double>(rect.width) * rect.height / (static_cast<double>(w) * h);
    // Rounding makes exact bounds soft; allow small tolerance.
    EXPECT_GT(frac, 0.15);
    EXPECT_LT(frac, 0.9);
  }
}

TEST(ResizedCropRect, ExtremeAspectUsesFallback) {
  Rng rng(23);
  // A 10000x64 strip: most attempts fail, fallback must still be in bounds.
  for (int trial = 0; trial < 50; ++trial) {
    const auto rect = sample_resized_crop_rect(10000, 64, rng);
    EXPECT_LE(rect.x + rect.width, 10000);
    EXPECT_LE(rect.y + rect.height, 64);
    EXPECT_GT(rect.width, 0);
    EXPECT_GT(rect.height, 0);
  }
}

TEST(ResizedCrop, ProducesTargetSquare) {
  const auto img = gradient_image(300, 200);
  Rng rng(24);
  const auto rect = sample_resized_crop_rect(300, 200, rng);
  const auto out = resized_crop(img, rect, 224);
  EXPECT_EQ(out.width(), 224);
  EXPECT_EQ(out.height(), 224);
}

Image noise_image(int w, int h, int channels, std::uint64_t seed) {
  Image img(w, h, channels);
  Rng rng(seed);
  for (auto& px : img.data()) px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return img;
}

TEST(ResizedCrop, MatchesCropThenResize) {
  // resized_crop resamples straight from the source rectangle; it must be
  // bit-identical to materialising the crop and resizing it.
  for (const auto& img : {noise_image(157, 93, 3, 31), noise_image(64, 101, 1, 32)}) {
    Rng rng(33);
    for (int trial = 0; trial < 150; ++trial) {
      const auto rect = sample_resized_crop_rect(img.width(), img.height(), rng, 0.001, 1.0);
      const int size = static_cast<int>(rng.uniform_int(1, 80));
      ASSERT_EQ(resized_crop(img, rect, size), resize_bilinear(crop(img, rect), size, size))
          << rect.x << "," << rect.y << " " << rect.width << "x" << rect.height << " -> " << size;
    }
  }
}

TEST(ResizedCrop, RejectsRectOutsideSource) {
  const auto img = gradient_image(8, 6);
  EXPECT_THROW((void)resized_crop(img, {4, 0, 5, 2}, 4), ContractViolation);
  EXPECT_THROW((void)resized_crop(img, {0, -1, 2, 2}, 4), ContractViolation);
  EXPECT_THROW((void)resized_crop(img, {0, 0, 2, 0}, 4), ContractViolation);
  EXPECT_THROW((void)resized_crop(img, {0, 0, 2, 2}, 0), ContractViolation);
}

TEST(Resize, PixelsArePinned) {
  // crc32 of resize outputs recorded before the kernel was rewritten to
  // resample source rectangles through row pointers.
  std::uint32_t crc = 0;
  for (const auto& img : {noise_image(157, 93, 3, 34), noise_image(40, 71, 1, 35)}) {
    for (const auto& [w, h] : {std::pair{224, 224}, {13, 200}, {300, 7}, {1, 1}, {79, 47}}) {
      crc = crc32(resize_bilinear(img, w, h).data(), crc);
    }
  }
  EXPECT_EQ(crc, 0x3b9f82dcu);
}

TEST(ToTensor, ScalesToUnitInterval) {
  Image img(2, 1, 3);
  img.set(0, 0, 0, 0);
  img.set(0, 0, 1, 128);
  img.set(0, 0, 2, 255);
  const auto t = to_tensor(img);
  EXPECT_EQ(t.channels(), 3);
  EXPECT_EQ(t.height(), 1);
  EXPECT_EQ(t.width(), 2);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
  EXPECT_NEAR(t.at(1, 0, 0), 128.0f / 255.0f, 1e-6);
  EXPECT_FLOAT_EQ(t.at(2, 0, 0), 1.0f);
}

TEST(ToTensor, LayoutIsChw) {
  Image img(2, 2, 3);
  img.set(1, 0, 2, 255);  // x=1, y=0, channel 2
  const auto t = to_tensor(img);
  EXPECT_FLOAT_EQ(t.at(2, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(t.at(2, 1, 0), 0.0f);
}

TEST(Normalize, AppliesMeanAndStd) {
  Image img(1, 1, 3);
  img.set(0, 0, 0, 255);
  img.set(0, 0, 1, 0);
  img.set(0, 0, 2, 128);
  auto t = to_tensor(img);
  normalize(t, kImagenetMean, kImagenetStd);
  EXPECT_NEAR(t.at(0, 0, 0), (1.0f - 0.485f) / 0.229f, 1e-5);
  EXPECT_NEAR(t.at(1, 0, 0), (0.0f - 0.456f) / 0.224f, 1e-5);
  EXPECT_NEAR(t.at(2, 0, 0), (128.0f / 255.0f - 0.406f) / 0.225f, 1e-5);
}

TEST(Normalize, RejectsZeroStd) {
  Tensor t(3, 1, 1);
  EXPECT_THROW(normalize(t, {0.f, 0.f, 0.f}, {1.f, 0.f, 1.f}), ContractViolation);
}

TEST(Normalize, SizeUnchanged) {
  Image img(7, 5, 3);
  auto t = to_tensor(img);
  const auto before = t.byte_size();
  normalize(t, kImagenetMean, kImagenetStd);
  EXPECT_EQ(t.byte_size(), before);
}

}  // namespace
}  // namespace sophon::image
