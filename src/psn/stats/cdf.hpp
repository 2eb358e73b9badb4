// Empirical cumulative distribution functions.
//
// Every CDF figure in the paper (Figs. 4, 7, 10) is an empirical CDF of a
// sample; EmpiricalCdf stores the sorted sample and answers P[X <= x],
// quantiles, and produces evenly spaced evaluation series for printing.

#pragma once

#include <cstddef>
#include <vector>

namespace psn::stats {

/// Immutable empirical CDF over a real-valued sample.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;

  /// Takes the sample by value and sorts it. NaNs must not be present.
  explicit EmpiricalCdf(std::vector<double> sample);

  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

  /// P[X <= x]; 0 for x below the sample minimum.
  [[nodiscard]] double at(double x) const noexcept;

  /// Smallest sample value v with P[X <= v] >= q, for q in (0, 1].
  /// Precondition: non-empty sample.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// Access to the sorted sample (e.g. for two-sample statistics).
  [[nodiscard]] const std::vector<double>& sorted_sample() const noexcept {
    return sorted_;
  }

 private:
  std::vector<double> sorted_;
};

/// Two-sided Kolmogorov-Smirnov statistic between two empirical CDFs.
/// Used by tests to compare generated distributions against targets.
[[nodiscard]] double ks_statistic(const EmpiricalCdf& a, const EmpiricalCdf& b);

}  // namespace psn::stats
