// Results split by §5.2 quadrant (trace::Quadrant: in-in, in-out, out-in,
// out-out): explosion records grouped by quadrant (Fig. 8) and
// per-quadrant statistics of the model layer's Monte-Carlo messages (the
// §5.2 hypothesis table).

#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "psn/model/heterogeneous_mc.hpp"
#include "psn/paths/explosion.hpp"
#include "psn/stats/summary.hpp"
#include "psn/trace/trace_stats.hpp"

namespace psn::core {

/// Explosion records grouped by trace::Quadrant.
struct QuadrantRecords {
  std::array<std::vector<paths::ExplosionRecord>, 4> by_quadrant;

  [[nodiscard]] const std::vector<paths::ExplosionRecord>& of(
      trace::Quadrant q) const noexcept {
    return by_quadrant[static_cast<std::size_t>(q)];
  }
};

[[nodiscard]] QuadrantRecords group_by_quadrant(
    const std::vector<paths::ExplosionRecord>& records,
    const trace::RateClassification& rc);

/// Per-quadrant statistics of model-layer Monte-Carlo messages (§5.2) —
/// the model-side analogue of group_by_quadrant, indexed by
/// trace::Quadrant. Only delivered messages contribute to t1 and only
/// exploded ones to te (their NaN sentinels make a violation loud instead
/// of silently deflating every mean).
struct McQuadrantSummary {
  std::array<std::size_t, 4> messages{};
  std::array<std::size_t, 4> delivered{};
  std::array<std::size_t, 4> exploded{};
  std::array<stats::Accumulator, 4> t1;  ///< first arrivals (delivered).
  std::array<stats::Accumulator, 4> te;  ///< explosion waits (exploded).
};

[[nodiscard]] McQuadrantSummary summarize_mc_by_quadrant(
    const std::vector<model::McMessageResult>& results);

}  // namespace psn::core
