#include "psn/forward/metrics.hpp"

#include <stdexcept>

namespace psn::forward {

void PerformancePool::add_run(std::span<const Message> messages,
                              std::span<const MessageOutcome> outcomes,
                              std::vector<double>* delays) {
  if (messages.size() != outcomes.size())
    throw std::invalid_argument(
        "PerformancePool: run messages/outcomes size mismatch");
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Message& m = messages[i];
    const MessageOutcome& o = outcomes[i];
    const auto t =
        static_cast<std::size_t>(rc_->quadrant(m.source, m.destination));
    for (Sums* sums : {&sums_[t], &sums_[4]}) {
      ++sums->messages;
      if (!o.delivered) continue;
      ++sums->delivered;
      sums->delay += o.delay;
      sums->hops += static_cast<double>(o.hops);
    }
    if (o.delivered && delays != nullptr) delays->push_back(o.delay);
  }
}

PairTypePerformance PerformancePool::by_pair_type() const {
  PairTypePerformance out;
  for (std::size_t t = 0; t < 4; ++t) out.per_type[t] = finish(sums_[t]);
  return out;
}

Performance PerformancePool::finish(const Sums& sums) const {
  Performance perf;
  perf.algorithm = algorithm_;
  perf.messages = sums.messages;
  perf.delivered = sums.delivered;
  if (perf.messages > 0)
    perf.success_rate = static_cast<double>(perf.delivered) /
                        static_cast<double>(perf.messages);
  if (perf.delivered > 0) {
    perf.average_delay = sums.delay / static_cast<double>(perf.delivered);
    perf.average_hops = sums.hops / static_cast<double>(perf.delivered);
  }
  return perf;
}

}  // namespace psn::forward
