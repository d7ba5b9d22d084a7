#include "util/histogram.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/check.h"

namespace sophon {
namespace {

TEST(EmpiricalCdf, RejectsNonFiniteValues) {
  EmpiricalCdf cdf;
  EXPECT_THROW(cdf.add(std::numeric_limits<double>::quiet_NaN()), ContractViolation);
}

TEST(EmpiricalCdf, FractionsAndQuantiles) {
  EmpiricalCdf cdf;
  cdf.add_all({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(3.0), 0.6);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
  EXPECT_EQ(cdf.size(), 5u);
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  EmpiricalCdf cdf;
  for (int i = 0; i < 100; ++i) cdf.add(static_cast<double>((i * 37) % 101));
  const auto curve = cdf.curve(20);
  ASSERT_EQ(curve.size(), 20u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(EmpiricalCdf, RejectsEmptyQueries) {
  EmpiricalCdf cdf;
  EXPECT_THROW((void)cdf.quantile(0.5), ContractViolation);
  EXPECT_THROW((void)cdf.fraction_at_or_below(1.0), ContractViolation);
}

}  // namespace
}  // namespace sophon
