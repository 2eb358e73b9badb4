#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::clamp(p / 100.0 * (n + 1.0), 1.0, n);  // 1-based.
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const double frac = rank - static_cast<double>(lower);
  if (lower >= values.size()) return values.back();
  return values[lower - 1] + frac * (values[lower] - values[lower - 1]);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

bool percentile_nameable(std::size_t samples, double p) {
  return static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

double highest_nameable_percentile(std::size_t samples) {
  double best = 0.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9})
    if (percentile_nameable(samples, p)) best = p;
  return best;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace perfbench
