// Fixed-width binning.
//
// Used for the time-series figures (total contacts per minute, Fig. 1;
// path arrivals over time, Figs. 6 and 12; cumulative receptions, Fig. 11).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psn::stats {

/// Histogram over [lo, hi) with `bins` equal-width bins. Values outside the
/// range are clamped into the first/last bin so no sample is silently lost.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] double bin_width() const noexcept { return width_; }

  /// Left edge of bin i.
  [[nodiscard]] double bin_left(std::size_t i) const noexcept;
  /// Center of bin i.
  [[nodiscard]] double bin_center(std::size_t i) const noexcept;
  /// Accumulated weight in bin i.
  [[nodiscard]] double count(std::size_t i) const noexcept {
    return counts_[i];
  }

  /// Cumulative weights: out[i] = sum of counts in bins 0..i.
  [[nodiscard]] std::vector<double> cumulative() const;

  [[nodiscard]] const std::vector<double>& counts() const noexcept {
    return counts_;
  }

 private:
  double lo_;
  double width_;
  std::vector<double> counts_;
};

}  // namespace psn::stats
