#include "psn/core/quadrant.hpp"

namespace psn::core {

QuadrantRecords group_by_quadrant(
    const std::vector<paths::ExplosionRecord>& records,
    const trace::RateClassification& rc) {
  QuadrantRecords out;
  for (const auto& rec : records) {
    const trace::Quadrant q = rc.quadrant(rec.source, rec.destination);
    out.by_quadrant[static_cast<std::size_t>(q)].push_back(rec);
  }
  return out;
}

McQuadrantSummary summarize_mc_by_quadrant(
    const std::vector<model::McMessageResult>& results) {
  McQuadrantSummary out;
  for (const auto& r : results) {
    const auto q = static_cast<std::size_t>(r.type);
    ++out.messages[q];
    if (r.delivered) {
      ++out.delivered[q];
      out.t1[q].add(r.first_arrival());
    }
    if (r.exploded) {
      ++out.exploded[q];
      out.te[q].add(r.explosion_wait());
    }
  }
  return out;
}

}  // namespace psn::core
