#include "psn/trace/trace_stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

namespace psn::trace {

const char* quadrant_name(Quadrant q) noexcept {
  switch (q) {
    case Quadrant::in_in:
      return "in-in";
    case Quadrant::in_out:
      return "in-out";
    case Quadrant::out_in:
      return "out-in";
    case Quadrant::out_out:
      return "out-out";
  }
  return "?";
}

RateClassification classify_rates(const ContactTrace& trace) {
  RateClassification out;
  out.rates = trace.contact_rates();
  std::vector<double> sorted = out.rates;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  out.median_rate =
      n == 0 ? 0.0
             : (n % 2 == 1 ? sorted[n / 2]
                           : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]));
  out.classes.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    out.classes[i] = out.rates[i] > out.median_rate ? RateClass::in_node
                                                    : RateClass::out_node;
  return out;
}

stats::Histogram contacts_per_bin(const ContactTrace& trace,
                                  Seconds bin_width) {
  const auto bins = static_cast<std::size_t>(
      std::ceil(trace.t_max() / bin_width));
  stats::Histogram hist(0.0, static_cast<double>(bins) * bin_width,
                        std::max<std::size_t>(bins, 1));
  for (const Contact& c : trace.contacts()) hist.add(c.start);
  return hist;
}

stats::EmpiricalCdf contact_count_cdf(const ContactTrace& trace) {
  const auto counts = trace.contact_counts();
  std::vector<double> sample(counts.size());
  std::transform(counts.begin(), counts.end(), sample.begin(),
                 [](std::size_t c) { return static_cast<double>(c); });
  return stats::EmpiricalCdf(std::move(sample));
}

std::vector<Seconds> all_inter_contact_times(const ContactTrace& trace) {
  // One pass: remember the last contact end per pair.
  std::map<std::pair<NodeId, NodeId>, Seconds> last_end;
  std::vector<Seconds> gaps;
  for (const Contact& c : trace.contacts()) {
    const auto key = std::make_pair(c.a, c.b);
    const auto it = last_end.find(key);
    if (it != last_end.end() && c.start > it->second)
      gaps.push_back(c.start - it->second);
    Seconds& slot = last_end[key];
    slot = std::max(slot, c.end);
  }
  return gaps;
}

std::vector<double> mean_intercontact_matrix(const ContactTrace& trace) {
  const NodeId n = trace.num_nodes();
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> matrix(static_cast<std::size_t>(n) * n, inf);

  // Accumulate gap sums and meeting counts per pair.
  std::map<std::pair<NodeId, NodeId>, std::pair<Seconds, std::size_t>> acc;
  std::map<std::pair<NodeId, NodeId>, Seconds> last_end;
  for (const Contact& c : trace.contacts()) {
    const auto key = std::make_pair(c.a, c.b);
    const auto it = last_end.find(key);
    if (it != last_end.end() && c.start > it->second) {
      auto& [sum, cnt] = acc[key];
      sum += c.start - it->second;
      ++cnt;
    } else if (it == last_end.end()) {
      acc.try_emplace(key, 0.0, 0);
    }
    Seconds& slot = last_end[key];
    slot = std::max(slot, c.end);
  }

  for (const auto& [key, sum_cnt] : acc) {
    const auto [sum, cnt] = sum_cnt;
    double mean_gap;
    if (cnt > 0) {
      mean_gap = sum / static_cast<double>(cnt);
    } else {
      // The pair met exactly once: use the window length as an optimistic
      // stand-in for the unobservable inter-contact time.
      mean_gap = trace.t_max();
    }
    matrix[static_cast<std::size_t>(key.first) * n + key.second] = mean_gap;
    matrix[static_cast<std::size_t>(key.second) * n + key.first] = mean_gap;
  }
  return matrix;
}

}  // namespace psn::trace
