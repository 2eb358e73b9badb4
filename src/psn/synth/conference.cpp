#include "psn/synth/conference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "psn/util/rng.hpp"

namespace psn::synth {

std::vector<ModulationSegment> default_conference_modulation(
    trace::Seconds t_max) {
  // A gentle session/break cadence: 50-minute sessions at baseline, 10-minute
  // breaks at double intensity, and a decline over the final 30 minutes
  // (Fig. 1 shows such a drop from 5:30 to 6:00 pm in two datasets).
  std::vector<ModulationSegment> segs;
  const trace::Seconds hour = 3600.0;
  trace::Seconds t = 0.0;
  while (t < t_max) {
    const trace::Seconds session_end = std::min(t + 50.0 * 60.0, t_max);
    segs.push_back({t, session_end, 1.0});
    t = session_end;
    if (t >= t_max) break;
    const trace::Seconds break_end = std::min(t + 10.0 * 60.0, t_max);
    segs.push_back({t, break_end, 2.0});
    t = break_end;
  }
  // Overlay the final-half-hour decline by splitting the tail segments.
  // The multiplier is chosen so that even a break segment in the decline
  // window ends up below the session baseline (2.0 * 0.45 = 0.9 < 1).
  constexpr double decline_factor = 0.45;
  const trace::Seconds decline_from = t_max - 0.5 * hour;
  std::vector<ModulationSegment> out;
  for (const auto& s : segs) {
    if (s.end <= decline_from) {
      out.push_back(s);
    } else if (s.start >= decline_from) {
      out.push_back({s.start, s.end, s.factor * decline_factor});
    } else {
      out.push_back({s.start, decline_from, s.factor});
      out.push_back({decline_from, s.end, s.factor * decline_factor});
    }
  }
  return out;
}

double modulation_at(const std::vector<ModulationSegment>& segs,
                     trace::Seconds t) {
  for (const auto& s : segs)
    if (t >= s.start && t < s.end) return s.factor;
  return 1.0;
}

double max_modulation(const std::vector<ModulationSegment>& segs) {
  double mx = 1.0;
  for (const auto& s : segs) mx = std::max(mx, s.factor);
  return mx;
}

double draw_intercontact_gap(GapModel model, double pareto_shape,
                             double rate, util::Rng& rng) {
  // For Pareto(x_m, alpha): mean = alpha * x_m / (alpha - 1), so
  // x_m = (alpha - 1) / (alpha * rate) preserves the pair's mean rate.
  if (model == GapModel::pareto) {
    const double scale = (pareto_shape - 1.0) / (pareto_shape * rate);
    return rng.pareto(scale, pareto_shape);
  }
  return rng.exponential(rate);
}

std::vector<double> draw_node_weights(const ConferenceConfig& config,
                                      util::Rng& rng) {
  const auto n = config.total_nodes();
  if (n < 2) throw std::invalid_argument("generator needs at least 2 nodes");
  if (!(config.t_max > 0.0) || !std::isfinite(config.t_max))
    throw std::invalid_argument("t_max must be positive and finite");
  if (!(config.mean_node_rate > 0.0) || !std::isfinite(config.mean_node_rate))
    throw std::invalid_argument("mean_node_rate must be positive and finite");
  if (config.gaps == GapModel::pareto && !(config.pareto_gap_shape > 1.0))
    throw std::invalid_argument("pareto_gap_shape must exceed 1");

  std::vector<double> w(n);
  for (trace::NodeId i = 0; i < n; ++i) {
    double x = rng.uniform();
    if (i >= config.mobile_nodes) x *= config.stationary_weight_boost;
    w[i] = std::max(x, 1e-9);
  }
  return w;
}

GeneratedTrace generate_conference(const ConferenceConfig& config) {
  util::Rng rng(config.seed);
  GeneratedTrace out;
  out.node_weights = draw_node_weights(config, rng);
  const auto& w = out.node_weights;
  const auto n = config.total_nodes();

  // Pair rate lambda_ij = scale * w_i * w_j. Node i's aggregate rate is
  // scale * w_i * (sum_j w_j - w_i); pick `scale` so the population mean of
  // the aggregate rates equals config.mean_node_rate.
  double weight_sum = 0.0;
  for (const double x : w) weight_sum += x;
  double raw_mean = 0.0;
  for (const double x : w) raw_mean += x * (weight_sum - x);
  raw_mean /= static_cast<double>(n);
  const double scale = config.mean_node_rate / raw_mean;

  out.node_rates.resize(n);
  for (trace::NodeId i = 0; i < n; ++i)
    out.node_rates[i] = scale * w[i] * (weight_sum - w[i]);

  const double peak = max_modulation(config.modulation);

  std::vector<trace::Contact> contacts;
  for (trace::NodeId i = 0; i < n; ++i) {
    for (trace::NodeId j = i + 1; j < n; ++j) {
      const double rate = scale * w[i] * w[j] * peak;
      if (rate <= 0.0) continue;
      // Each device pair sees sightings on its own scan phase; without the
      // per-pair phase every contact would land on a global grid and the
      // Fig. 1 time series would alternate between full and empty bins.
      const double phase = config.scan_interval > 0.0
                               ? rng.uniform(0.0, config.scan_interval)
                               : 0.0;
      // Renewal arrivals on [0, t_max): exponential or heavy-tailed gaps.
      double t = draw_intercontact_gap(config.gaps, config.pareto_gap_shape,
                                       rate, rng);
      while (t < config.t_max) {
        // Thinning: accept with probability modulation(t)/peak. (Exact for
        // Poisson gaps; for heavy-tailed gaps it preserves burstiness and
        // modulates density, which is all Fig. 1 needs.)
        const double accept =
            modulation_at(config.modulation, t) / peak;
        if (rng.bernoulli(accept)) {
          double start = t;
          if (config.scan_interval > 0.0) {
            start = phase +
                    std::floor((start - phase) / config.scan_interval) *
                        config.scan_interval;
            if (start < 0.0) start = 0.0;
          }
          const double duration =
              rng.exponential(1.0 / config.mean_contact_duration);
          contacts.push_back(trace::Contact::make(
              i, j, start, std::min(start + duration, config.t_max)));
        }
        t += draw_intercontact_gap(config.gaps, config.pareto_gap_shape,
                                   rate, rng);
      }
    }
  }

  out.trace = trace::ContactTrace(std::move(contacts), n, config.t_max);
  return out;
}

}  // namespace psn::synth
