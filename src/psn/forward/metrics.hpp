// Forwarding performance metrics: success rate S, average delay D (§4),
// per-run aggregation (the paper averages over 10 runs), and the pair-type
// breakdown of Fig. 13.

#pragma once

#include <span>
#include <string>
#include <vector>

#include "psn/forward/message.hpp"
#include "psn/trace/trace_stats.hpp"

namespace psn::forward {

/// One simulation run: the workload and what happened to it.
struct Run {
  std::vector<Message> messages;
  SimulationResult result;
};

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

[[nodiscard]] Performance aggregate_performance(const std::string& algorithm,
                                                std::span<const Run> runs);

/// Delays of all delivered messages pooled across runs (Fig. 10's CDFs).
[[nodiscard]] std::vector<double> pooled_delays(std::span<const Run> runs);

/// Fig. 13: metrics broken down by source/destination rate class,
/// indexed by trace::Quadrant.
struct PairTypePerformance {
  Performance per_type[4];
};

/// Splits pooled run results by the quadrant of each message's
/// (source, destination) under `rc`.
[[nodiscard]] PairTypePerformance split_by_pair_type(
    const std::string& algorithm, std::span<const Run> runs,
    const trace::RateClassification& rc);

}  // namespace psn::forward
