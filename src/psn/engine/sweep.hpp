// The scenario-sweep engine: executes a SweepPlan's cross product of
// {scenario} x {algorithm} x {run} on the caller's thread pool and
// aggregates forwarding metrics into per-(scenario, algorithm) cells. It
// is the one entry point of a forwarding study; code that needs one run
// calls forward::simulate directly.
//
// Determinism guarantee: for a fixed plan, run_sweep produces bit-identical
// CellSummary metrics at any thread count, serial (no pool) included.
// Each run draws from its own precomputed RNG streams (run_spec.hpp),
// every phase is one fan-out whose shards write pre-sized slots addressed
// by plan index, and aggregation walks slots in plan order. Only the
// wall-clock telemetry fields vary between executions.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "psn/engine/run_spec.hpp"
#include "psn/forward/metrics.hpp"
#include "psn/forward/simulator.hpp"

namespace psn::engine {

class ThreadPool;

/// Aggregated outcome of one (scenario, algorithm) cell of the matrix,
/// pooled over all of that cell's runs.
struct CellSummary {
  std::string scenario;
  std::string algorithm;
  forward::Performance overall;
  forward::PairTypePerformance by_pair_type;
  std::vector<double> delays;  ///< pooled delivered delays (Fig. 10).
  double cost_per_message = 0.0;  ///< transmissions per generated message.
  std::vector<double> run_walls;  ///< per-run wall times, run order (telemetry).
  /// Steps whose relay fixpoint hit max_relay_passes, summed over runs;
  /// nonzero means forwarding chains were truncated (message.hpp).
  std::uint64_t truncated_relay_steps = 0;
  /// Traffic-model event counters, summed over the cell's runs (all zero
  /// for unconstrained, no-TTL sweeps; forward/message.hpp for semantics).
  std::uint64_t expirations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t drops = 0;
  std::uint64_t budget_blocked = 0;
  std::uint64_t buffer_rejections = 0;
  std::size_t messages_offered = 0;  ///< pooled workload size over runs.
  /// Simulator work counters summed over the cell's runs: deterministic,
  /// but instruments only — no result and no service payload reads them.
  forward::SimulationEffort effort;
};

struct SweepResult {
  std::vector<CellSummary> cells;  ///< scenario-major, algorithm-minor.
  std::size_t num_scenarios = 0;
  std::size_t num_algorithms = 0;
  std::size_t total_runs = 0;
  double wall_seconds = 0.0;  ///< end-to-end sweep wall time (telemetry).
  /// Wall of the phase-1.5 snapshot wave, part of wall_seconds: near zero
  /// when every snapshot was already built, 0 when no algorithm publishes
  /// one or observation is kPerRun (telemetry).
  double snapshot_wall_seconds = 0.0;

  [[nodiscard]] const CellSummary& cell(std::size_t scenario,
                                        std::size_t algorithm) const {
    return cells.at(scenario * num_algorithms + algorithm);
  }
};

/// Where algorithms get their trace-derived observation state.
enum class ObservationMode {
  /// Algorithms that publish a shared_snapshot_key() adopt the
  /// scenario's shared observation snapshot (built once per scenario,
  /// cached on its ScenarioContext, counted against the context-cache
  /// budget). Bit-identical to kPerRun per algorithm; adopted runs also
  /// qualify for the simulator's holder-incident fast path.
  kShared,
  /// Every run rebuilds its observation tables online, replaying each
  /// contact through observe_contact, and flood runs extract each step's
  /// components themselves — the permanent oracle the equivalence tests
  /// pin kShared against.
  kPerRun,
};

struct SweepOptions {
  /// The sweep's one executor setting: every phase fans out on this
  /// caller-owned pool, so a driver or a resident service (psn_serve)
  /// shares one warm worker set (and its thread_local simulator
  /// workspaces) across sweeps. Null runs every phase serially on the
  /// calling thread (util::serial_parallel_for). Results are identical
  /// either way (slot-addressed, pool-independent). The sweep waits only
  /// for its own shards, so it may run beside other sweeps on the pool or
  /// be entered from one of the pool's own tasks.
  ThreadPool* pool = nullptr;
  /// Retain pooled delay vectors in the cells (Fig. 10 style drivers need
  /// them; large sweeps can switch them off to bound memory).
  bool keep_delays = true;
  /// Simulator step sequence. kSparse (default) replays only the graph's
  /// event timeline; kDense replays every step — the modes are
  /// bit-identical, and kDense exists for the equivalence harness.
  forward::ReplayMode replay = forward::ReplayMode::kSparse;
  /// Epidemic-closure kernel handed to every run (bit-identical options;
  /// kScalar exists for the equivalence harness).
  forward::FloodKernel flood_kernel = forward::FloodKernel::kComponentIndex;
  /// Simulator contact-scan mode handed to every run. kHolderIncident
  /// (default) lets eligible non-flood runs visit only holder-incident
  /// contacts; kFull is the scalar full-replay oracle. Bit-identical
  /// (simulator.hpp).
  forward::ContactScan contact_scan = forward::ContactScan::kHolderIncident;
  /// Observation state sourcing (see ObservationMode). kShared default.
  ObservationMode observation = ObservationMode::kShared;
};

/// Executes the plan. Each scenario's immutable context (dataset +
/// space-time graph) is acquired from the process-wide
/// ScenarioContextCache — built exactly once per cell, in parallel across
/// scenarios, and shared read-only by every run and thread (and by later
/// sweeps, while a caller still holds the scenario's dataset context).
/// Each worker thread owns a reusable forward::SimulatorWorkspace, so the
/// steady state of a sweep simulates without heap allocation. Throws if
/// any run threw.
[[nodiscard]] SweepResult run_sweep(const SweepPlan& plan,
                                    const SweepOptions& options = {});

}  // namespace psn::engine
