#include "psn/paths/explosion.hpp"

namespace psn::paths {

ExplosionRecord make_explosion_record(const EnumerationResult& result,
                                      std::size_t k) {
  ExplosionRecord rec;
  rec.source = result.source;
  rec.destination = result.destination;
  rec.t_start = result.t_start;
  rec.delivered = result.delivered();
  rec.effort = result.effort;

  if (!rec.delivered) return rec;

  const Seconds t1_abs = result.deliveries.front().arrival;
  rec.optimal_duration = t1_abs - result.t_start;

  std::uint64_t cumulative = 0;
  for (const Delivery& d : result.deliveries) {
    cumulative += d.count;
    if (rec.growth.empty() || rec.growth.back().offset != d.arrival - t1_abs) {
      rec.growth.push_back({d.arrival - t1_abs, cumulative});
    } else {
      rec.growth.back().cumulative = cumulative;
    }
  }
  rec.total_paths = cumulative;

  const auto te = result.time_to_explosion(k);
  if (te.has_value() && cumulative >= k) {
    rec.exploded = true;
    rec.time_to_explosion = *te;
  }
  return rec;
}

std::vector<double> optimal_durations(
    const std::vector<ExplosionRecord>& records) {
  std::vector<double> out;
  for (const auto& rec : records)
    if (rec.delivered) out.push_back(rec.optimal_duration);
  return out;
}

std::vector<double> times_to_explosion(
    const std::vector<ExplosionRecord>& records) {
  std::vector<double> out;
  for (const auto& rec : records)
    if (rec.exploded) out.push_back(rec.time_to_explosion);
  return out;
}

}  // namespace psn::paths
