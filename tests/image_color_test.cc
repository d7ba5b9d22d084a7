#include "image/color.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace sophon::image {
namespace {

TEST(Color, GrayAxisMapsToNeutralChroma) {
  for (const int v : {0, 64, 128, 200, 255}) {
    const auto ycc = rgb_to_ycbcr(static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v),
                                  static_cast<std::uint8_t>(v));
    EXPECT_NEAR(ycc.y, v, 1);
    EXPECT_NEAR(ycc.cb, 128, 1);
    EXPECT_NEAR(ycc.cr, 128, 1);
  }
}

TEST(Color, PrimariesHaveExpectedLuma) {
  EXPECT_NEAR(rgb_to_ycbcr(255, 0, 0).y, 76, 2);   // 0.299 * 255
  EXPECT_NEAR(rgb_to_ycbcr(0, 255, 0).y, 150, 2);  // 0.587 * 255
  EXPECT_NEAR(rgb_to_ycbcr(0, 0, 255).y, 29, 2);   // 0.114 * 255
}

TEST(Color, RoundTripErrorBounded) {
  Rng rng(31);
  double worst = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto ycc = rgb_to_ycbcr(r, g, b);
    const auto rgb = ycbcr_to_rgb(ycc.y, ycc.cb, ycc.cr);
    worst = std::max({worst, std::abs(static_cast<double>(rgb.r) - r),
                      std::abs(static_cast<double>(rgb.g) - g),
                      std::abs(static_cast<double>(rgb.b) - b)});
  }
  EXPECT_LE(worst, 3.0);  // 8-bit fixed-point round trip
}

TEST(Color, SplitProducesSubsampledPlanes) {
  Image img(9, 7, 3);  // odd dims exercise the ceil edges
  const auto planes = split_ycbcr_420(img);
  EXPECT_EQ(planes.y.width(), 9);
  EXPECT_EQ(planes.y.height(), 7);
  EXPECT_EQ(planes.cb.width(), 5);
  EXPECT_EQ(planes.cb.height(), 4);
  EXPECT_EQ(planes.cr.width(), 5);
  EXPECT_EQ(planes.cr.height(), 4);
}

TEST(Color, SplitMergeRoundTripOnSmoothContent) {
  Image img(32, 24, 3);
  for (int y = 0; y < 24; ++y)
    for (int x = 0; x < 32; ++x) {
      img.set(x, y, 0, static_cast<std::uint8_t>(40 + x * 2));
      img.set(x, y, 1, static_cast<std::uint8_t>(60 + y * 3));
      img.set(x, y, 2, static_cast<std::uint8_t>(100));
    }
  const auto planes = split_ycbcr_420(img);
  const auto back = merge_ycbcr_420(planes.y, planes.cb, planes.cr, 32, 24);
  double err = 0.0;
  for (std::size_t i = 0; i < img.data().size(); ++i)
    err += std::abs(static_cast<int>(img.data()[i]) - static_cast<int>(back.data()[i]));
  EXPECT_LT(err / static_cast<double>(img.data().size()), 4.0);
}

TEST(Color, MergeMatchesPointConversionOnEveryInput) {
  // Chroma sample (cb, cr) sits at column cb and row cr of 256x256 planes;
  // its 2x2 luma block holds 4 consecutive values, so 64 merges visit every
  // (y, cb, cr) triple once.
  Plane cb(256, 256);
  Plane cr(256, 256);
  for (int v = 0; v < 256; ++v) {
    for (int u = 0; u < 256; ++u) {
      cb.set(u, v, static_cast<std::uint8_t>(u));
      cr.set(u, v, static_cast<std::uint8_t>(v));
    }
  }
  std::int64_t mismatches = 0;
  for (int base = 0; base < 256; base += 4) {
    Plane luma(512, 512);
    for (int y = 0; y < 512; ++y)
      for (int x = 0; x < 512; ++x)
        luma.set(x, y, static_cast<std::uint8_t>(base + 2 * (y % 2) + x % 2));
    const auto rgb = merge_ycbcr_420(luma, cb, cr, 512, 512);
    for (int y = 0; y < 512; ++y) {
      for (int x = 0; x < 512; ++x) {
        const auto want = ycbcr_to_rgb(luma.at(x, y), static_cast<std::uint8_t>(x / 2),
                                       static_cast<std::uint8_t>(y / 2));
        mismatches += rgb.at(x, y, 0) != want.r || rgb.at(x, y, 1) != want.g ||
                      rgb.at(x, y, 2) != want.b;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Color, RegionMergeMatchesCropOfWholeMerge) {
  // Odd and even sizes and offsets, single pixels and edge-touching
  // regions; planes exactly as large as the region needs, or larger.
  Rng rng(12);
  for (const auto& [w, h] : {std::pair{1, 1}, {2, 3}, {5, 4}, {17, 9}, {40, 33}}) {
    const int cw = (w + 1) / 2;
    const int ch = (h + 1) / 2;
    Plane y(w, h);
    Plane cb(cw, ch);
    Plane cr(cw, ch);
    for (auto* plane : {&y, &cb, &cr}) {
      for (auto& v : plane->data()) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const auto whole = merge_ycbcr_420(y, cb, cr, w, h);
    for (int trial = 0; trial < 40; ++trial) {
      CropRect r;
      r.x = static_cast<int>(rng.uniform_int(0, w - 1));
      r.y = static_cast<int>(rng.uniform_int(0, h - 1));
      r.width = static_cast<int>(rng.uniform_int(1, w - r.x));
      r.height = static_cast<int>(rng.uniform_int(1, h - r.y));
      const auto part = merge_ycbcr_420(y, cb, cr, r);
      ASSERT_EQ(part.width(), r.width);
      ASSERT_EQ(part.height(), r.height);
      for (int py = 0; py < r.height; ++py)
        for (int px = 0; px < r.width; ++px)
          for (int c = 0; c < 3; ++c)
            ASSERT_EQ(part.at(px, py, c), whole.at(r.x + px, r.y + py, c))
                << w << "x" << h << " region " << r.x << "," << r.y << " " << r.width << "x"
                << r.height;
    }
  }
}

TEST(Color, RegionMergeRejectsPlanesShortOfTheRegion) {
  const Plane y(6, 6);
  const Plane cb(3, 3);
  const Plane cr(3, 3);
  EXPECT_THROW((void)merge_ycbcr_420(y, cb, cr, CropRect{2, 2, 5, 2}), ContractViolation);
  EXPECT_THROW((void)merge_ycbcr_420(y, Plane(2, 3), Plane(2, 3), CropRect{0, 0, 6, 2}),
               ContractViolation);
  EXPECT_THROW((void)merge_ycbcr_420(y, cb, cr, CropRect{0, 0, 0, 2}), ContractViolation);
}

TEST(Color, MergeRejectsMismatchedPlanes) {
  Plane y(8, 8);
  Plane cb(4, 4);
  Plane cr(3, 4);  // wrong width
  EXPECT_THROW((void)merge_ycbcr_420(y, cb, cr, 8, 8), ContractViolation);
}

TEST(Color, SplitRejectsGrayscale) {
  EXPECT_THROW((void)split_ycbcr_420(Image(4, 4, 1)), ContractViolation);
}

}  // namespace
}  // namespace sophon::image
