// The path-study sweep: message-level fan-out of k-path enumeration over
// the caller's thread pool, mirroring run_sweep's slot-addressed,
// deterministically aggregated design — the one entry point of a path
// study, behind the path-figure drivers (Figs. 4-6, 8, 11, 14-15, the
// ablations) and psn_serve's path requests. Code that needs one message
// uses paths::KPathEnumerator directly.
//
// Determinism guarantee: for a fixed plan, run_path_sweep produces
// bit-identical per-message results at any thread count, serial (no pool)
// included. Each scenario's message sample is drawn once from the study's
// isolated workload stream (core::uniform_message_sample, the exact stream
// the serial study used), enumeration of one message is a pure function of
// (graph, message, config) — the enumerator consumes no randomness and its
// workspace cannot influence results (paths/enumerator.hpp) — and every
// outcome lands in the slot addressed by its (scenario, message) index,
// walked in plan order by the aggregation. Only wall-clock telemetry
// varies between executions.
//
// Each scenario's immutable context (dataset + space-time graph) comes
// from the process-wide ScenarioContextCache — built exactly once per
// cell, shared read-only by every message and thread. Each worker thread
// owns a reusable paths::EnumeratorWorkspace, so the steady state of a
// sweep enumerates without heap allocation.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "psn/engine/run_spec.hpp"
#include "psn/paths/explosion.hpp"

namespace psn::engine {

class ThreadPool;

/// The message-sample axis of a path sweep (the scenario axis is the
/// plan's scenario list).
struct PathPlanConfig {
  std::size_t messages = 120;  ///< enumeration sample size per scenario.
  std::size_t k = 2000;        ///< explosion threshold (paper: 2000).
  std::uint64_t seed = 42;     ///< message-sample stream seed.
  /// Retain full Path objects on deliveries (hop-profile figures need
  /// them; T1/TE studies do not).
  bool record_paths = false;
};

/// A fully specified path sweep: scenarios x the message sample.
struct PathSweepPlan {
  std::vector<Scenario> scenarios;
  PathPlanConfig config;
};

struct PathSweepOptions {
  /// Execute on this caller-owned pool; null runs every phase serially on
  /// the calling thread. The sweep waits only for its own shards, so it
  /// may share the pool with other sweeps or be entered from one of the
  /// pool's own tasks (see SweepOptions::pool).
  ThreadPool* pool = nullptr;
  /// Retain the raw EnumerationResults (drivers that read deliveries or
  /// recorded paths need them; T1/TE studies keep only the records and
  /// switch this off to bound memory on large sweeps).
  bool keep_results = true;
};

/// Aggregated outcome of one scenario of the sweep. All vectors are in
/// message (slot) order.
struct PathCell {
  std::string scenario;
  std::vector<paths::MessageSpec> messages;
  /// Raw enumeration outcomes; empty when keep_results was off.
  std::vector<paths::EnumerationResult> results;
  /// Explosion records derived with the plan's k.
  std::vector<paths::ExplosionRecord> records;
  double enumeration_wall_seconds = 0.0;  ///< summed per-message walls.
};

struct PathSweepResult {
  std::vector<PathCell> cells;  ///< scenario order.
  std::size_t total_messages = 0;
  double wall_seconds = 0.0;  ///< end-to-end sweep wall time (telemetry).
};

/// Executes the plan (see file comment). Throws if any enumeration threw.
[[nodiscard]] PathSweepResult run_path_sweep(
    const PathSweepPlan& plan, const PathSweepOptions& options = {});

}  // namespace psn::engine
