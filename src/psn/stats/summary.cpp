#include "psn/stats/summary.hpp"

#include <cmath>
#include <stdexcept>

namespace psn::stats {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::stderr_mean() const noexcept {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double ci99_halfwidth(const Accumulator& acc) noexcept {
  // The standard normal's 0.995 quantile, to the last bit of Acklam's
  // rational approximation, so the intervals fig14 and model_heterogeneous
  // print keep every digit.
  constexpr double kZ99 = 0x1.49b4c653a0a4bp+1;  // 2.5758293064439264
  return kZ99 * acc.stderr_mean();  // stderr_mean() is 0 below 2 samples.
}

double mean_of(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("pearson: size mismatch");
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = mean_of(xs);
  const double my = mean_of(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace psn::stats
