// Path-explosion analysis (paper §4.2): per-message records of T1 (optimal
// path duration), TE (time to explosion = T_k - T_1), and the growth curve
// of delivered paths over time. A path study enumerates its message sample
// through engine::run_path_sweep, which derives these records with the
// plan's k.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "psn/paths/enumerator.hpp"

namespace psn::paths {

/// One point of a path-growth curve: cumulative paths delivered by
/// `offset` seconds after the first delivery.
struct GrowthPoint {
  Seconds offset = 0.0;
  std::uint64_t cumulative = 0;
};

/// Per-message explosion record.
struct ExplosionRecord {
  NodeId source = 0;
  NodeId destination = 0;
  Seconds t_start = 0.0;
  bool delivered = false;
  bool exploded = false;  ///< k-th path arrived before the window ended.
  Seconds optimal_duration = 0.0;   ///< T1 - t_start; valid if delivered.
  Seconds time_to_explosion = 0.0;  ///< T_k - T_1; valid if exploded.
  std::uint64_t total_paths = 0;    ///< paths delivered before stopping.
  std::vector<GrowthPoint> growth;  ///< cumulative arrivals since T1.
  /// How much work the enumeration performed (steps replayed, peak stored
  /// paths, k-truncation rejections) — fig06's effort summary and the
  /// path_explosion bench section read this.
  EnumerationEffort effort;
};

/// Builds the record from an enumeration result, using explosion threshold
/// k (paper: 2000).
[[nodiscard]] ExplosionRecord make_explosion_record(
    const EnumerationResult& result, std::size_t k);

/// A message to analyze.
struct MessageSpec {
  NodeId source = 0;
  NodeId destination = 0;
  Seconds t_start = 0.0;
};

/// T1 of every delivered record, in record order.
[[nodiscard]] std::vector<double> optimal_durations(
    const std::vector<ExplosionRecord>& records);
/// TE of every exploded record, in record order.
[[nodiscard]] std::vector<double> times_to_explosion(
    const std::vector<ExplosionRecord>& records);

}  // namespace psn::paths
