#include "psn/paths/hop_profile.hpp"

#include <algorithm>

namespace psn::paths {

HopProfileCollector::HopProfileCollector(std::vector<double> node_rates,
                                         std::size_t max_hops)
    : node_rates_(std::move(node_rates)),
      max_hops_(max_hops),
      rate_acc_(max_hops + 1),
      ratio_samples_(max_hops + 1) {}

void HopProfileCollector::add(const EnumerationResult& result) {
  for (const Delivery& d : result.deliveries) {
    if (!d.path.valid()) continue;
    const auto seq = d.path.sequence();
    // A path contributes once per pooled time-variant: the paper counts
    // every near-optimal path, and variants share their node sequence.
    const auto weight = static_cast<std::size_t>(
        std::min<std::uint64_t>(d.count, 1000));  // cap extreme pooling
    for (std::size_t rep = 0; rep < weight; ++rep) {
      for (std::size_t h = 0; h < seq.size() && h <= max_hops_; ++h)
        rate_acc_[h].add(node_rates_[seq[h].first]);
      for (std::size_t h = 0; h + 1 < seq.size() && h < ratio_samples_.size();
           ++h) {
        const double from = node_rates_[seq[h].first];
        const double to = node_rates_[seq[h + 1].first];
        if (from > 0.0) ratio_samples_[h].push_back(to / from);
      }
    }
  }
}

HopRateProfile HopProfileCollector::rate_profile() const {
  HopRateProfile out;
  for (const auto& acc : rate_acc_) {
    if (acc.count() == 0) break;
    out.mean.push_back(acc.mean());
    out.ci99.push_back(stats::ci99_halfwidth(acc));
    out.samples.push_back(acc.count());
  }
  return out;
}

HopRatioProfile HopProfileCollector::ratio_profile() const {
  HopRatioProfile out;
  for (const auto& sample : ratio_samples_) {
    if (sample.empty()) break;
    out.ratio.push_back(stats::box_stats(sample));
    out.samples.push_back(sample.size());
  }
  return out;
}

}  // namespace psn::paths
