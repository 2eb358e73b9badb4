// ForwardingStudy: the pipeline behind Figs. 9, 10, 13 — run every
// forwarding algorithm over Poisson workloads, repeated over several runs,
// and aggregate S / D overall and per pair type.
//
// run_offered_load_study is the contended-forwarding extension (ROADMAP
// item 1): the same pipeline swept over workload-rate multipliers under
// finite traffic limits (forward::TrafficConfig), producing the
// success/delay/drops/evictions-versus-offered-load result family the
// paper's unconstrained simulator cannot show — most prominently the
// congestion collapse of Epidemic against quota schemes like Spray+Wait.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "psn/core/dataset.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/simulator.hpp"

namespace psn::core {

struct ForwardingStudyConfig {
  std::size_t runs = 10;        ///< paper: 10 simulation runs.
  double message_rate = 0.25;   ///< paper: 1 message per 4 seconds.
  trace::Seconds delta = 10.0;
  std::uint64_t seed = 7;
  bool extended_suite = false;  ///< include Direct/Random/Spray/PRoPHET.
  /// Worker threads for the underlying engine sweep; 0 means one per
  /// hardware thread. Results are identical at every thread count.
  std::size_t threads = 0;
  /// Traffic model: network-side limits plus per-message size and TTL.
  /// The defaults reproduce the unconstrained paper study bit-for-bit.
  forward::TrafficConfig traffic;
  std::uint32_t message_size_bytes = 1;
  trace::Seconds message_ttl = forward::kNoTtl;
};

struct ForwardingStudyResult {
  /// One cell per algorithm, in suite order.
  std::vector<engine::CellSummary> algorithms;
};

[[nodiscard]] ForwardingStudyResult run_forwarding_study(
    const Dataset& dataset, const ForwardingStudyConfig& config);

/// Configuration of the offered-load sweep: the workload rate is
/// base_message_rate x multiplier for each entry of rate_multipliers,
/// everything else held fixed.
struct OfferedLoadConfig {
  std::vector<double> rate_multipliers = {0.5, 1.0, 2.0, 4.0, 8.0};
  double base_message_rate = 0.25;  ///< the paper's 1-per-4-s baseline.
  /// Algorithms to contrast under load; the default pits unbounded
  /// replication against a fixed-quota scheme.
  std::vector<std::string> algorithms = {"Epidemic", "Spray+Wait"};
  std::size_t runs = 3;
  trace::Seconds delta = 10.0;
  std::uint64_t seed = 7;
  /// The binding limits — an unconstrained offered-load sweep is flat by
  /// construction, so callers set at least one finite knob.
  forward::TrafficConfig traffic;
  std::uint32_t message_size_bytes = 1;
  trace::Seconds message_ttl = forward::kNoTtl;
  std::size_t threads = 0;
};

/// One (rate multiplier, algorithm) cell of the offered-load matrix.
struct OfferedLoadPoint {
  double rate_multiplier = 1.0;
  double message_rate = 0.25;  ///< the realized rate (base x multiplier).
  std::string algorithm;
  std::size_t messages_offered = 0;  ///< generated messages, summed runs.
  double success_rate = 0.0;
  double average_delay = 0.0;
  double cost_per_message = 0.0;
  /// Per-offered-message event rates, pooled over the point's runs.
  double drop_rate = 0.0;
  double expiry_rate = 0.0;
  std::uint64_t evictions = 0;
  std::uint64_t budget_blocked = 0;
};

/// Points ordered multiplier-major in rate_multipliers order, algorithm-
/// minor in OfferedLoadConfig::algorithms order.
struct OfferedLoadStudy {
  std::vector<OfferedLoadPoint> points;

  [[nodiscard]] const OfferedLoadPoint& point(std::size_t multiplier,
                                              std::size_t algorithm,
                                              std::size_t num_algorithms)
      const {
    return points.at(multiplier * num_algorithms + algorithm);
  }
};

/// Sweeps offered load over the dataset: one engine sweep per rate
/// multiplier, all under the same traffic limits. Deterministic in the
/// seed at every thread count, like run_forwarding_study.
[[nodiscard]] OfferedLoadStudy run_offered_load_study(
    const Dataset& dataset, const OfferedLoadConfig& config);

}  // namespace psn::core
