#include "util/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/stats.h"

namespace sophon {

void EmpiricalCdf::add(double value) {
  SOPHON_CHECK_MSG(std::isfinite(value), "CDF values must be finite");
  values_.push_back(value);
  sorted_ = false;
}

void EmpiricalCdf::add_all(const std::vector<double>& values) {
  for (const auto value : values) add(value);
}

void EmpiricalCdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::fraction_at_or_below(double x) const {
  SOPHON_CHECK(!values_.empty());
  ensure_sorted();
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  return static_cast<double>(it - values_.begin()) / static_cast<double>(values_.size());
}

double EmpiricalCdf::quantile(double q) const {
  SOPHON_CHECK(!values_.empty());
  ensure_sorted();
  return percentile(values_, q);
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(std::size_t points) const {
  SOPHON_CHECK(!values_.empty());
  SOPHON_CHECK(points >= 2);
  ensure_sorted();
  const double lo = values_.front();
  const double hi = values_.back();
  std::vector<std::pair<double, double>> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, fraction_at_or_below(x));
  }
  return out;
}

}  // namespace sophon
