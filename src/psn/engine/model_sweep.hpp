// The §5 model sweep: replica/message-level fan-out of the Markov jump
// simulator (§5.1.2) and the heterogeneous-rate Monte Carlo (§5.2) over
// the caller's thread pool, mirroring run_sweep's and run_path_sweep's
// slot-addressed, deterministically aggregated design — the parallel
// production path behind bench/model_validation, bench/model_heterogeneous
// and psn_serve's model requests.
//
// Determinism guarantee: for a fixed plan, run_model_sweep produces
// bit-identical cells at any thread count, serial (no pool) included.
// Every unit of work — one jump replica, one MC message — draws from its
// own RNG substream, derived stateless from the plan's master seed and the
// unit's slot index via SplitMix64 (model_substream_seed: the output of
// draw number `slot` of the SplitMix64 sequence from `seed`, reachable in
// O(1) because the sequence's state advances by the golden gamma once per
// draw). Shared per-scenario inputs (the MC population and the (source,
// destination) pair sample) are drawn serially from their own substreams,
// so the choice is thread-invariant; every outcome lands in the slot
// addressed by its (scenario, unit) index, and aggregation — Welford
// ensemble statistics across replicas, quadrant summaries across messages
// — walks slots in plan order. Only wall-clock telemetry varies between
// executions.
//
// The single-stream serial kernels (model::run_jump_simulation,
// model::run_heterogeneous_mc) are retained as the equivalence oracles,
// mirroring the kDense pattern of the trace pipelines: replica slots
// re-run serially with the same derived seeds reproduce the engine's
// ensemble bit for bit, and the serial single-stream MC's aggregate
// statistics match the substreamed fan-out within sampling tolerance
// (model_sweep_test asserts both).
//
// Each worker thread owns a reusable model::ModelWorkspace, so the
// steady state of a sweep simulates without reallocating the O(N) state
// vectors — which is what keeps the N = 100 000 tiers feasible.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "psn/core/quadrant.hpp"
#include "psn/model/heterogeneous_mc.hpp"
#include "psn/model/jump_simulator.hpp"

namespace psn::engine {

class ThreadPool;

/// Output of SplitMix64 draw number `slot` (0-based) of the sequence
/// seeded with `seed` — the sweep's per-slot substream derivation.
[[nodiscard]] std::uint64_t model_substream_seed(std::uint64_t seed,
                                                 std::uint64_t slot) noexcept;

/// Concrete stream seeds of the sweep's substream lattice, exposed (like
/// run_spec's workload_stream_seed / sim_stream_seed) so oracle tests and
/// drivers can reproduce any unit of work serially.
[[nodiscard]] std::uint64_t model_jump_replica_seed(std::uint64_t master_seed,
                                                    std::size_t scenario,
                                                    std::size_t replica) noexcept;
[[nodiscard]] std::uint64_t model_mc_population_seed(
    std::uint64_t master_seed, std::size_t scenario) noexcept;
[[nodiscard]] std::uint64_t model_mc_pair_seed(std::uint64_t master_seed,
                                               std::size_t scenario) noexcept;
[[nodiscard]] std::uint64_t model_mc_message_seed(std::uint64_t master_seed,
                                                  std::size_t scenario,
                                                  std::size_t message) noexcept;

/// A named model experiment: one population scale with the jump-process
/// and Monte-Carlo configurations run at it. The embedded seed fields are
/// ignored by the sweep (substreams come from the plan's master seed);
/// jump replicas come from the plan, and either half can be disabled
/// (plan jump_replicas == 0 / mc.messages == 0).
struct ModelScenario {
  std::string name;
  model::JumpSimConfig jump;
  model::HeterogeneousMcConfig mc;
};

/// Names of the registered model scale tiers (N = 100 / 1 000 / 10 000 /
/// 100 000), smallest population first. Valid inputs of
/// make_model_scenario; unknown-name errors enumerate this list.
[[nodiscard]] std::vector<std::string> model_scenario_names();

/// Builds the named scale tier. Throws std::invalid_argument listing the
/// registered names for unknown names.
[[nodiscard]] ModelScenario make_model_scenario(std::string_view name);

struct ModelPlanConfig {
  /// Jump-process realizations per scenario (0 = skip the jump half).
  std::size_t jump_replicas = 8;
  std::uint64_t master_seed = 7;  ///< root of every derived substream.
};

/// A fully specified model sweep: scenarios x {replicas, messages}.
struct ModelSweepPlan {
  std::vector<ModelScenario> scenarios;
  ModelPlanConfig config;
};

struct ModelSweepOptions {
  /// Execute on this caller-owned pool; null runs every phase serially on
  /// the calling thread. The sweep waits only for its own shards, so it
  /// may share the pool with other sweeps or be entered from one of the
  /// pool's own tasks (see SweepOptions::pool).
  ThreadPool* pool = nullptr;
  /// Retain the raw per-message MC results in the cells (the quadrant
  /// summary is always computed; large sweeps switch this off to bound
  /// memory).
  bool keep_messages = true;
};

/// Ensemble statistics of the jump process at one sample time: Welford
/// accumulation across replicas, in replica (slot) order.
struct EnsemblePoint {
  double t = 0.0;
  double mean_paths = 0.0;  ///< across-replica mean of per-replica means.
  /// Unbiased across-replica variance of mean_paths (0 for one replica).
  double var_mean_paths = 0.0;
  /// Across-replica mean of the within-population variance of S_n(t).
  double mean_variance_paths = 0.0;
  /// Empirical density u_k (k = 0..10) averaged across replicas.
  std::vector<double> mean_low_density;
};

/// Aggregated outcome of one scenario of the sweep.
struct ModelCell {
  std::string scenario;
  /// The jump population when the jump half ran, else the MC population
  /// (the registered tiers keep the two equal).
  std::size_t population = 0;
  // Jump ensemble.
  std::size_t jump_replicas = 0;
  std::vector<EnsemblePoint> trajectory;  ///< sample-time order.
  std::uint64_t jump_events = 0;  ///< transitions applied, all replicas.
  double jump_wall_seconds = 0.0;  ///< summed per-replica walls.
  // Heterogeneous MC.
  std::vector<model::McMessageResult> messages;  ///< slot order; see options.
  core::McQuadrantSummary quadrants;
  double mc_wall_seconds = 0.0;  ///< summed per-message walls.
};

struct ModelSweepResult {
  std::vector<ModelCell> cells;  ///< scenario order.
  std::size_t total_replicas = 0;
  std::size_t total_messages = 0;
  double wall_seconds = 0.0;  ///< end-to-end sweep wall time (telemetry).
};

/// Executes the plan (see file comment). Throws if any unit threw.
[[nodiscard]] ModelSweepResult run_model_sweep(
    const ModelSweepPlan& plan, const ModelSweepOptions& options = {});

}  // namespace psn::engine
