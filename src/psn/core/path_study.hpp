// PathStudy: the end-to-end pipeline behind Figs. 4, 5, 6, 8, 11 — build
// the space-time graph, sample messages, enumerate paths, and collect
// explosion records. Since the engine port the study is a single-scenario
// path sweep: the graph comes from the process-wide ScenarioContextCache
// (built once per dataset and shared), and the message sample is
// enumerated in parallel with bit-identical records at any thread count
// (engine/path_sweep.hpp) — which is what makes this pipeline feasible on
// the campus_512 / city_2048 registry tiers, not just the conference
// windows.

#pragma once

#include <cstdint>
#include <vector>

#include "psn/core/dataset.hpp"
#include "psn/core/quadrant.hpp"
#include "psn/graph/space_time_graph.hpp"
#include "psn/paths/explosion.hpp"

namespace psn::core {

struct PathStudyConfig {
  std::size_t messages = 120;   ///< enumeration sample size.
  std::size_t k = 2000;         ///< explosion threshold (paper: 2000).
  trace::Seconds delta = 10.0;  ///< space-time discretization (paper: 10 s).
  std::uint64_t seed = 42;
  /// Worker threads for the underlying path sweep; 0 means one per
  /// hardware thread. Records are identical at every thread count.
  std::size_t threads = 0;
};

struct PathStudyResult {
  std::vector<paths::ExplosionRecord> records;
  QuadrantRecords quadrants;

  /// Records that were delivered / that reached the explosion threshold.
  [[nodiscard]] std::vector<double> optimal_durations() const;
  [[nodiscard]] std::vector<double> times_to_explosion() const;
};

/// Runs the study on one dataset.
[[nodiscard]] PathStudyResult run_path_study(const Dataset& dataset,
                                             const PathStudyConfig& config);

}  // namespace psn::core
