#include "psn/stats/histogram.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace psn::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins) {
  if (bins == 0) throw std::invalid_argument("Histogram needs >= 1 bin");
  if (!(hi > lo)) throw std::invalid_argument("Histogram needs hi > lo");
}

void Histogram::add(double x, double weight) noexcept {
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
}

double Histogram::bin_left(std::size_t i) const noexcept {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_center(std::size_t i) const noexcept {
  return bin_left(i) + width_ / 2.0;
}

std::vector<double> Histogram::cumulative() const {
  std::vector<double> out(counts_.size());
  std::partial_sum(counts_.begin(), counts_.end(), out.begin());
  return out;
}

}  // namespace psn::stats
