// Monte-Carlo exploration of the inhomogeneous model (§5.2).
//
// The paper argues (without a closed form) that when per-node contact rates
// lambda_i differ, a message held by a node with rate lambda_i triggers a
// "subset path explosion" at rate lambda_i among nodes at least that fast,
// and that the source/destination rates therefore control T1 and TE:
//
//   in-in   -> T1 small, TE small      in-out  -> T1 small, TE large
//   out-in  -> T1 large, TE small      out-out -> T1 large, TE large
//
// This module simulates the jump process with heterogeneous rates (node i
// initiates contacts at rate lambda_i toward peers chosen proportionally to
// their rates, the mass-action analogue of the trace generators) and
// reports per-quadrant T1 / TE statistics so benches can check the
// hypothesis ordering against both the model and the trace experiments.
//
// The experiment splits into a shared population (rates, prefix sums,
// median split — built once, immutable, read concurrently) and a
// per-message kernel (simulate_mc_message), so the engine's model sweep
// can fan messages out across threads; run_heterogeneous_mc composes the
// two on a single stream, reproducing the historical draw order exactly.

#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "psn/trace/trace_stats.hpp"

namespace psn::util {
class Rng;
}  // namespace psn::util

namespace psn::model {

struct HeterogeneousMcConfig {
  std::size_t population = 100;
  /// Per-node rates are drawn Uniform(0, max_rate), matching Fig. 7.
  double max_rate = 0.1;
  double t_end = 7200.0;
  /// Explosion threshold: number of path arrivals at the destination that
  /// defines T_k (paper: 2000).
  std::uint64_t k = 2000;
  std::size_t messages = 200;  ///< messages simulated per run.
  std::uint64_t seed = 1;
};

/// Result for one simulated message. The time fields are NaN until their
/// flag is set: a consumer that forgets to check delivered/exploded gets
/// a poisoned value that propagates loudly, not a silent 0.0 that
/// deflates every average (use the checked accessors).
struct McMessageResult {
  trace::Quadrant type = trace::Quadrant::in_in;
  bool delivered = false;
  bool exploded = false;
  double t1 = std::numeric_limits<double>::quiet_NaN();  ///< first arrival.
  double te = std::numeric_limits<double>::quiet_NaN();  ///< T_k - T_1.

  /// First-arrival time; reading it asserts delivery happened.
  [[nodiscard]] double first_arrival() const noexcept {
    assert(delivered);
    return t1;
  }
  /// Explosion wait T_k - T_1; reading it asserts the explosion happened.
  [[nodiscard]] double explosion_wait() const noexcept {
    assert(exploded);
    return te;
  }
};

/// The shared half of one MC experiment: per-node rates with their
/// sampling prefix sums and the §5.2 in/out split at the median rate.
/// Immutable once built; shared read-only across messages and threads.
struct HeterogeneousPopulation {
  std::vector<double> rate;
  std::vector<double> prefix;  ///< inclusive prefix sums of rate.
  double median = 0.0;
  double total_rate = 0.0;  ///< sum of rates = aggregate opportunity rate.

  [[nodiscard]] bool is_in(std::size_t node) const {
    return rate[node] > median;
  }
  /// The §5.2 quadrant of (source, destination) under this median split.
  [[nodiscard]] trace::Quadrant classify(std::size_t source,
                                         std::size_t destination) const {
    return trace::quadrant_of(is_in(source), is_in(destination));
  }
};

/// Draws the Uniform(0, max_rate) per-node rates — config.population
/// draws from `rng`, the exact stream prefix run_heterogeneous_mc has
/// always consumed — and derives prefix sums and the median split.
[[nodiscard]] HeterogeneousPopulation make_heterogeneous_population(
    const HeterogeneousMcConfig& config, util::Rng& rng);

/// Simulates one message from `source` to `destination`, with `rng`
/// driving the event loop. `counts` is the per-node path-count scratch
/// (model workspace; fully re-initialized here, so the result is a pure
/// function of (population, config, message, rng stream) regardless of
/// workspace history).
[[nodiscard]] McMessageResult simulate_mc_message(
    const HeterogeneousPopulation& population,
    const HeterogeneousMcConfig& config, std::size_t source,
    std::size_t destination, util::Rng& rng, std::vector<double>& counts);

/// Simulates `messages` random messages; deterministic in `config.seed`.
/// Single-stream serial composition of the pieces above — the historical
/// behavior, retained as the statistical oracle for the engine's
/// substreamed parallel fan-out (engine/model_sweep.hpp).
[[nodiscard]] std::vector<McMessageResult> run_heterogeneous_mc(
    const HeterogeneousMcConfig& config);

}  // namespace psn::model
