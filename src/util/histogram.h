// Empirical CDFs for the analysis figures (Fig 1c efficiency CDF).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sophon {

/// Empirical CDF: stores points, answers quantile and fraction-below queries,
/// and renders evenly spaced (x, F(x)) rows for figure reproduction.
class EmpiricalCdf {
 public:
  void add(double value);
  void add_all(const std::vector<double>& values);

  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// Fraction of samples <= x.
  [[nodiscard]] double fraction_at_or_below(double x) const;

  /// Value at quantile q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

  /// `points` evenly spaced rows spanning the sample range: (x, F(x)).
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

}  // namespace sophon
