// Run specifications: the unit of work of the sweep engine.
//
// A sweep executes the cross product {scenario} x {algorithm} x {run}
// where a scenario is a named dataset (real or synthetic trace) with a
// discretization delta, an algorithm is a registry name, and a run is one
// repetition with its own workload. Every RunSpec carries concrete,
// precomputed seeds so a run is fully determined by its spec alone —
// per-run RNG streams never touch shared state, which is what makes the
// sweep's results independent of thread count and scheduling.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "psn/core/dataset.hpp"
#include "psn/forward/message.hpp"
#include "psn/forward/traffic.hpp"

namespace psn::engine {

/// A named experiment scenario: one dataset plus its graph discretization.
/// The dataset is shared read-only across all runs of the scenario.
struct Scenario {
  std::string name;
  std::shared_ptr<const core::Dataset> dataset;
  trace::Seconds delta = 10.0;
  /// Whether ScenarioContextCache may retain this scenario's context
  /// beyond its live holders (the byte-budgeted residency psn_serve
  /// relies on). make_scenario switches this off: it aliases a
  /// caller-owned dataset with a no-op deleter, so a context retained
  /// past the caller would dangle. Owning scenarios (the registry's)
  /// keep it on.
  bool cache_retainable = true;
};

/// Wraps a caller-owned dataset (which must outlive the sweep) without
/// copying it — the common case for drivers that build datasets up front.
/// The rvalue overload is deleted: a temporary would dangle by sweep time.
[[nodiscard]] Scenario make_scenario(const core::Dataset& dataset,
                                     trace::Seconds delta = 10.0);
Scenario make_scenario(core::Dataset&& dataset,
                       trace::Seconds delta = 10.0) = delete;

/// One run: indices into the plan's scenario/algorithm lists plus the
/// repetition index and the concrete seeds of its isolated RNG streams.
struct RunSpec {
  std::size_t scenario = 0;
  std::size_t algorithm = 0;
  std::size_t run = 0;
  /// Workload stream. Shared across algorithms of the same (scenario, run)
  /// so comparisons are paired: every algorithm sees the same messages.
  std::uint64_t workload_seed = 1;
  /// Simulator tie-break stream (per-step edge shuffle).
  std::uint64_t sim_seed = 1;
  double message_rate = 0.25;
};

struct PlanConfig {
  std::size_t runs = 10;          ///< repetitions per (scenario, algorithm).
  std::uint64_t master_seed = 7;  ///< root of all derived streams.
  double message_rate = 0.25;     ///< messages per second (paper: 1 per 4s).
  /// Network-side traffic limits applied to every run of the sweep; the
  /// default (unlimited) reproduces the unconstrained sweeps bit-for-bit.
  forward::TrafficConfig traffic;
  /// Traffic dimensions stamped on every workload message.
  std::uint32_t message_size_bytes = 1;
  trace::Seconds message_ttl = forward::kNoTtl;
};

/// A fully expanded sweep: the axes plus the linearized cross product.
/// runs[] is ordered scenario-major, then algorithm, then repetition; the
/// position of a spec in this vector is its result slot in run_sweep.
struct SweepPlan {
  std::vector<Scenario> scenarios;
  std::vector<std::string> algorithms;  ///< forward registry names.
  std::vector<RunSpec> runs;
  PlanConfig config;

  [[nodiscard]] std::size_t total_runs() const noexcept {
    return runs.size();
  }
  /// Linear result slot of (scenario, algorithm, run).
  [[nodiscard]] std::size_t slot(std::size_t scenario, std::size_t algorithm,
                                 std::size_t run) const noexcept {
    return (scenario * algorithms.size() + algorithm) * config.runs + run;
  }
};

/// Seed of the workload stream of repetition `run`. Every scenario of a
/// plan replays the same stream, as the pre-engine studies did (each
/// dataset was studied with the same config seed), so single-scenario
/// plans reproduce pre-engine results bit for bit.
[[nodiscard]] std::uint64_t workload_stream_seed(std::uint64_t master_seed,
                                                 std::size_t run) noexcept;

/// Seed of the simulator tie-break stream of repetition `run`.
[[nodiscard]] std::uint64_t sim_stream_seed(std::uint64_t master_seed,
                                            std::size_t run) noexcept;

/// Expands the cross product into a SweepPlan.
[[nodiscard]] SweepPlan make_plan(std::vector<Scenario> scenarios,
                                  std::vector<std::string> algorithms,
                                  const PlanConfig& config);

}  // namespace psn::engine
