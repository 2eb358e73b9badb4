// Exact stochastic simulation of the paper's Markov jump process (§5.1.2).
//
// State: S_n(t) = number of paths that reached node n. Each node fires
// contact opportunities at rate lambda toward a uniform peer; on contact
// (n -> m), S_m += S_n. Kurtz's theorem says the empirical density
// U_k(t)/N of this process converges to the ODE of homogeneous_model.hpp
// as N grows; the Gillespie-style simulator below lets tests and benches
// verify that convergence numerically.

#pragma once

#include <cstdint>
#include <vector>

#include "psn/model/workspace.hpp"

namespace psn::model {

struct JumpSimConfig {
  std::size_t population = 1000;  ///< N.
  double lambda = 0.05;           ///< per-node contact opportunity rate.
  double t_end = 200.0;
  std::size_t samples = 50;       ///< trajectory sample count (0 = none).
  std::uint64_t seed = 1;
};

/// One sampled time point of the jump process. Sample times never exceed
/// config.t_end (the horizon clamps the sampling grid's floating-point
/// accumulation).
struct JumpSample {
  double t = 0.0;
  double mean_paths = 0.0;      ///< (1/N) sum_n S_n(t).
  double variance_paths = 0.0;  ///< population variance of S_n(t).
  /// Empirical density u_k for k = 0..10 (the low states the ODE tracks
  /// most accurately).
  std::vector<double> low_density;
};

/// Event-loop telemetry of one realization (bench throughput accounting;
/// never influences results).
struct JumpRunTelemetry {
  std::uint64_t events = 0;  ///< contact opportunities applied before t_end.
};

/// Runs one realization; deterministic in `config.seed`. The event loop
/// exits as soon as the last sample is taken — simulating past the final
/// observation is unobservable work.
[[nodiscard]] std::vector<JumpSample> run_jump_simulation(
    const JumpSimConfig& config);

/// Workspace-reusing overload: bit-identical samples, but the O(N) state
/// vector comes from `workspace` so replica ensembles at N = 10^5 do not
/// reallocate per run. Results never depend on workspace history.
[[nodiscard]] std::vector<JumpSample> run_jump_simulation(
    const JumpSimConfig& config, ModelWorkspace& workspace,
    JumpRunTelemetry* telemetry = nullptr);

}  // namespace psn::model
