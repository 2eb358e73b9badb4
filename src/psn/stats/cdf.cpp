#include "psn/stats/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace psn::stats {

EmpiricalCdf::EmpiricalCdf(std::vector<double> sample)
    : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (sorted_.empty()) throw std::logic_error("quantile of empty CDF");
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  const auto n = static_cast<double>(sorted_.size());
  const auto idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  return sorted_[std::min(idx, sorted_.size() - 1)];
}

double EmpiricalCdf::min() const {
  if (sorted_.empty()) throw std::logic_error("min of empty CDF");
  return sorted_.front();
}

double EmpiricalCdf::max() const {
  if (sorted_.empty()) throw std::logic_error("max of empty CDF");
  return sorted_.back();
}

double ks_statistic(const EmpiricalCdf& a, const EmpiricalCdf& b) {
  double d = 0.0;
  for (const double x : a.sorted_sample())
    d = std::max(d, std::abs(a.at(x) - b.at(x)));
  for (const double x : b.sorted_sample())
    d = std::max(d, std::abs(a.at(x) - b.at(x)));
  return d;
}

}  // namespace psn::stats
