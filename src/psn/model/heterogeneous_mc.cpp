#include "psn/model/heterogeneous_mc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "psn/util/rng.hpp"

namespace psn::model {

namespace {

/// Samples an index proportionally to `weights` given their prefix sums.
std::size_t sample_weighted(const std::vector<double>& prefix,
                            util::Rng& rng) {
  const double u = rng.uniform() * prefix.back();
  const auto it = std::upper_bound(prefix.begin(), prefix.end(), u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - prefix.begin(),
                               static_cast<std::ptrdiff_t>(prefix.size()) - 1));
}

constexpr double kCountCap = 1e15;  // doubles stay exact well past 2000.

}  // namespace

HeterogeneousPopulation make_heterogeneous_population(
    const HeterogeneousMcConfig& config, util::Rng& rng) {
  if (config.population < 2)
    throw std::invalid_argument("heterogeneous MC needs population >= 2");

  const std::size_t n = config.population;
  HeterogeneousPopulation population;

  // Per-node activity rates, Uniform(0, max_rate) as in Fig. 7.
  population.rate.resize(n);
  for (auto& r : population.rate) r = rng.uniform(0.0, config.max_rate);

  population.prefix.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += population.rate[i];
    population.prefix[i] = acc;
  }
  population.total_rate = acc;

  // in/out split at the median rate (§5.2).
  std::vector<double> sorted = population.rate;
  std::sort(sorted.begin(), sorted.end());
  population.median = n % 2 == 1
                          ? sorted[n / 2]
                          : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return population;
}

McMessageResult simulate_mc_message(const HeterogeneousPopulation& population,
                                    const HeterogeneousMcConfig& config,
                                    std::size_t source,
                                    std::size_t destination, util::Rng& rng,
                                    std::vector<double>& counts) {
  McMessageResult res;
  res.type = population.classify(source, destination);

  auto& s = counts;
  s.assign(population.rate.size(), 0.0);
  s[source] = 1.0;
  double arrivals = 0.0;

  double t = 0.0;
  while (t < config.t_end) {
    t += rng.exponential(population.total_rate);
    if (t >= config.t_end) break;
    // Initiator fires proportionally to its rate; the peer is drawn
    // proportionally to rate as well (mass-action pairing, the analogue
    // of the pairwise w_i * w_j trace generator).
    const std::size_t i = sample_weighted(population.prefix, rng);
    std::size_t j = sample_weighted(population.prefix, rng);
    if (i == j) continue;  // self-draw: no contact.

    if (i == destination || j == destination) {
      // Delivery: the peer hands everything it holds to the destination
      // and retains nothing (minimal progress + first preference).
      const std::size_t peer = i == destination ? j : i;
      if (s[peer] > 0.0) {
        arrivals += s[peer];
        s[peer] = 0.0;
        if (!res.delivered) {
          res.delivered = true;
          res.t1 = t;
        }
        if (arrivals >= static_cast<double>(config.k)) {
          res.exploded = true;
          res.te = t - res.t1;
          break;
        }
      }
      continue;
    }

    // Symmetric exchange: both ends learn the other's paths.
    const double si = s[i];
    const double sj = s[j];
    s[i] = std::min(si + sj, kCountCap);
    s[j] = std::min(sj + si, kCountCap);
  }
  return res;
}

std::vector<McMessageResult> run_heterogeneous_mc(
    const HeterogeneousMcConfig& config) {
  util::Rng rng(config.seed);
  const HeterogeneousPopulation population =
      make_heterogeneous_population(config, rng);
  const std::size_t n = config.population;

  std::vector<McMessageResult> results;
  results.reserve(config.messages);
  std::vector<double> counts;

  for (std::size_t msg = 0; msg < config.messages; ++msg) {
    const auto src = static_cast<std::size_t>(rng.uniform_index(n));
    auto dst = static_cast<std::size_t>(rng.uniform_index(n - 1));
    if (dst >= src) ++dst;
    results.push_back(
        simulate_mc_message(population, config, src, dst, rng, counts));
  }
  return results;
}

}  // namespace psn::model
