// Forwarding performance metrics: success rate S, average delay D (§4),
// pooled over runs (the paper averages over 10 runs), overall and by the
// pair types of Fig. 13, in one pass.

#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "psn/forward/message.hpp"
#include "psn/trace/trace_stats.hpp"

namespace psn::forward {

/// Aggregated S and D over one or more runs (messages pooled, matching the
/// paper's averaging over 10 simulation runs).
struct Performance {
  std::string algorithm;
  double success_rate = 0.0;
  double average_delay = 0.0;
  /// Mean hop count of the delivering copies (Fig. 14-style statistic).
  /// Meaningful for every algorithm, including Epidemic, whose flooding
  /// fast path tracks hop levels through the per-step component closure.
  double average_hops = 0.0;
  std::size_t messages = 0;
  std::size_t delivered = 0;
};

/// Fig. 13: metrics broken down by source/destination rate class,
/// indexed by trace::Quadrant.
struct PairTypePerformance {
  Performance per_type[4];
};

/// Pools one algorithm's runs in a single pass, in (run, message) order:
/// S, D and mean hops overall and by the quadrant of each message's
/// (source, destination) under `rc`, plus the delivered delays (Fig. 10's
/// CDFs). Every mean divides a sum taken in that order.
class PerformancePool {
 public:
  /// Holds `rc` by reference; a temporary would dangle.
  PerformancePool(std::string algorithm, const trace::RateClassification& rc)
      : algorithm_(std::move(algorithm)), rc_(&rc) {}
  PerformancePool(std::string algorithm,
                  trace::RateClassification&& rc) = delete;

  /// Folds in one run, whose outcomes[i] is the fate of messages[i], and
  /// appends its delivered delays to `delays` unless that is null. Throws
  /// std::invalid_argument if the two sizes differ.
  void add_run(std::span<const Message> messages,
               std::span<const MessageOutcome> outcomes,
               std::vector<double>* delays = nullptr);

  [[nodiscard]] Performance overall() const { return finish(sums_[4]); }
  [[nodiscard]] PairTypePerformance by_pair_type() const;

 private:
  struct Sums {
    std::size_t messages = 0;
    std::size_t delivered = 0;
    double delay = 0.0;
    double hops = 0.0;
  };

  [[nodiscard]] Performance finish(const Sums& sums) const;

  std::string algorithm_;
  const trace::RateClassification* rc_;
  Sums sums_[5];  ///< per trace::Quadrant, then overall.
};

}  // namespace psn::forward
