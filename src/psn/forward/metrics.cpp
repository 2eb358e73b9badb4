#include "psn/forward/metrics.hpp"

#include <stdexcept>

namespace psn::forward {

Performance aggregate_performance(const std::string& algorithm,
                                  std::span<const Run> runs) {
  Performance perf;
  perf.algorithm = algorithm;
  double delay_sum = 0.0;
  double hop_sum = 0.0;
  for (const Run& run : runs) {
    perf.messages += run.result.outcomes.size();
    for (const auto& o : run.result.outcomes) {
      if (o.delivered) {
        ++perf.delivered;
        delay_sum += o.delay;
        hop_sum += static_cast<double>(o.hops);
      }
    }
  }
  if (perf.messages > 0)
    perf.success_rate = static_cast<double>(perf.delivered) /
                        static_cast<double>(perf.messages);
  if (perf.delivered > 0) {
    perf.average_delay = delay_sum / static_cast<double>(perf.delivered);
    perf.average_hops = hop_sum / static_cast<double>(perf.delivered);
  }
  return perf;
}

std::vector<double> pooled_delays(std::span<const Run> runs) {
  std::vector<double> out;
  for (const Run& run : runs)
    for (const auto& o : run.result.outcomes)
      if (o.delivered) out.push_back(o.delay);
  return out;
}

PairTypePerformance split_by_pair_type(const std::string& algorithm,
                                       std::span<const Run> runs,
                                       const trace::RateClassification& rc) {
  PairTypePerformance out;
  double delay_sum[4] = {0, 0, 0, 0};
  double hop_sum[4] = {0, 0, 0, 0};
  for (std::size_t t = 0; t < 4; ++t) out.per_type[t].algorithm = algorithm;

  for (const Run& run : runs) {
    if (run.messages.size() != run.result.outcomes.size())
      throw std::invalid_argument(
          "split_by_pair_type: run messages/outcomes size mismatch");
    for (std::size_t i = 0; i < run.messages.size(); ++i) {
      const Message& m = run.messages[i];
      const auto t =
          static_cast<std::size_t>(rc.quadrant(m.source, m.destination));
      auto& perf = out.per_type[t];
      ++perf.messages;
      const auto& o = run.result.outcomes[i];
      if (o.delivered) {
        ++perf.delivered;
        delay_sum[t] += o.delay;
        hop_sum[t] += static_cast<double>(o.hops);
      }
    }
  }
  for (std::size_t t = 0; t < 4; ++t) {
    auto& perf = out.per_type[t];
    if (perf.messages > 0)
      perf.success_rate = static_cast<double>(perf.delivered) /
                          static_cast<double>(perf.messages);
    if (perf.delivered > 0) {
      perf.average_delay = delay_sum[t] / static_cast<double>(perf.delivered);
      perf.average_hops = hop_sum[t] / static_cast<double>(perf.delivered);
    }
  }
  return out;
}

}  // namespace psn::forward
