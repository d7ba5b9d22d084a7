#include "image/image.h"

#include <gtest/gtest.h>

#include "image/tensor.h"
#include "util/check.h"

namespace sophon::image {
namespace {

TEST(Image, ConstructZeroFilled) {
  const Image img(4, 3, 3);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.pixel_count(), 12);
  EXPECT_EQ(img.byte_size().count(), 36);
  EXPECT_EQ(img.at(2, 1, 0), 0);
}

TEST(Image, SetGetRoundTrip) {
  Image img(5, 5, 3);
  img.set(3, 4, 2, 200);
  EXPECT_EQ(img.at(3, 4, 2), 200);
  EXPECT_EQ(img.at(3, 4, 1), 0);
}

TEST(Image, TakeOwnershipOfPixels) {
  std::vector<std::uint8_t> pixels{1, 2, 3, 4, 5, 6};
  const Image img(2, 1, 3, std::move(pixels));
  EXPECT_EQ(img.at(0, 0, 0), 1);
  EXPECT_EQ(img.at(1, 0, 2), 6);
}

TEST(Image, RejectsBadConstruction) {
  EXPECT_THROW(Image(0, 4, 3), ContractViolation);
  EXPECT_THROW(Image(-1, 4, 3), ContractViolation);  // checked before allocating
  EXPECT_THROW(Image(4, 4, 2), ContractViolation);
  EXPECT_THROW(Image(2, 2, 3, std::vector<std::uint8_t>(5)), ContractViolation);
}

TEST(Image, BoundsChecked) {
  Image img(2, 2, 1);
  EXPECT_THROW((void)img.at(2, 0, 0), ContractViolation);
  EXPECT_THROW((void)img.at(0, -1, 0), ContractViolation);
  EXPECT_THROW(img.set(0, 0, 1, 7), ContractViolation);
}

TEST(Image, EqualityIsValueBased) {
  Image a(2, 2, 1);
  Image b(2, 2, 1);
  EXPECT_EQ(a, b);
  b.set(1, 1, 0, 9);
  EXPECT_NE(a, b);
}

TEST(Plane, RejectsBadConstruction) {
  EXPECT_THROW(Plane(0, 2), ContractViolation);
  EXPECT_THROW(Plane(-3, 2), ContractViolation);
}

TEST(Plane, SetGet) {
  Plane p(3, 2);
  p.set(2, 1, 77);
  EXPECT_EQ(p.at(2, 1), 77);
  EXPECT_THROW((void)p.at(3, 0), ContractViolation);
}

TEST(Tensor, ConstructAndSize) {
  const Tensor t(3, 224, 224);
  EXPECT_EQ(t.numel(), 3 * 224 * 224);
  EXPECT_EQ(t.byte_size().count(), 3 * 224 * 224 * 4);
}

TEST(Tensor, SetGetChw) {
  Tensor t(3, 2, 2);
  t.set(2, 1, 0, 0.5f);
  EXPECT_FLOAT_EQ(t.at(2, 1, 0), 0.5f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
}

TEST(Tensor, BoundsChecked) {
  Tensor t(1, 2, 2);
  EXPECT_THROW((void)t.at(1, 0, 0), ContractViolation);
  EXPECT_THROW(t.set(0, 2, 0, 1.0f), ContractViolation);
}

TEST(Tensor, ByteSizeIsFourTimesImage) {
  const Image img(224, 224, 3);
  const Tensor t(3, 224, 224);
  EXPECT_EQ(t.byte_size().count(), img.byte_size().count() * 4);
}

}  // namespace
}  // namespace sophon::image
