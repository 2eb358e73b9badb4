// Scalar summary statistics: mean, variance, confidence intervals,
// correlation. Fig. 14 plots means with 99% confidence intervals; Fig. 5's
// "no clear relationship" claim is quantified with Pearson correlation.

#pragma once

#include <cstddef>
#include <vector>

namespace psn::stats {

/// Streaming mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Half-width of the symmetric normal-approximation 99% confidence
/// interval for the mean (z ~ 2.576); 0 for fewer than two samples.
[[nodiscard]] double ci99_halfwidth(const Accumulator& acc) noexcept;

/// Sample mean of a vector; 0 for empty input.
[[nodiscard]] double mean_of(const std::vector<double>& xs) noexcept;

/// Pearson correlation coefficient; 0 when either sample is degenerate.
/// Precondition: xs.size() == ys.size().
[[nodiscard]] double pearson(const std::vector<double>& xs,
                             const std::vector<double>& ys);

}  // namespace psn::stats
