#include "psn/synth/metropolis.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "psn/util/parallel.hpp"
#include "psn/util/rng.hpp"

namespace psn::synth {

namespace {

/// Stateless per-pair scan phase in [0, scan): a SplitMix64 hash of
/// (seed, min(i,j), max(i,j)). Replaces the conference generator's
/// per-pair stored phase without per-pair state.
double pair_phase(std::uint64_t seed, trace::NodeId i, trace::NodeId j,
                  double scan) {
  const trace::NodeId a = std::min(i, j);
  const trace::NodeId b = std::max(i, j);
  std::uint64_t state =
      seed ^ (static_cast<std::uint64_t>(a) << 32 | b) * 0x9e3779b97f4a7c15ULL;
  const std::uint64_t bits = util::splitmix64(state);
  // 53-bit mantissa -> uniform double in [0, 1).
  return scan * (static_cast<double>(bits >> 11) * 0x1.0p-53);
}

}  // namespace

GeneratedTrace generate_metropolis(const ConferenceConfig& config,
                                   const util::ParallelFor& parallel) {
  if (config.gaps != GapModel::exponential)
    throw std::invalid_argument(
        "generate_metropolis: superposition needs exponential gaps");
  if (!parallel)
    throw std::invalid_argument("generate_metropolis: empty ParallelFor");

  // Weights and their checks are generate_conference's own (same draws,
  // same stream layout), so metro tiers are the conference family at
  // scale rather than a new model.
  util::Rng rng(config.seed);
  GeneratedTrace out;
  out.node_weights = draw_node_weights(config, rng);
  const auto& w = out.node_weights;
  const trace::NodeId n = config.total_nodes();

  double weight_sum = 0.0;
  double weight_sq_sum = 0.0;
  for (const double x : w) {
    weight_sum += x;
    weight_sq_sum += x * x;
  }
  const double pair_mass = weight_sum * weight_sum - weight_sq_sum;
  double raw_mean = pair_mass / static_cast<double>(n);
  const double scale = config.mean_node_rate / raw_mean;

  out.node_rates.resize(n);
  for (trace::NodeId i = 0; i < n; ++i)
    out.node_rates[i] = scale * w[i] * (weight_sum - w[i]);

  const double peak = max_modulation(config.modulation);
  // The superposed peak-rate process (see file comment): Lambda =
  // scale * peak * sum_{i<j} w_i w_j. A NaN or huge stationary boost
  // overflows S^2 - Q, and the shard count below must not come from NaN.
  const double lambda = scale * peak * pair_mass / 2.0;
  if (!(lambda > 0.0) || !std::isfinite(lambda))
    throw std::invalid_argument(
        "generate_metropolis: node weights overflow the superposed rate");

  // Weight-proportional node sampling by binary search over the prefix
  // mass. (An alias table would be O(1) per draw but the draw is not the
  // bottleneck; the search is branch-predictable and allocation-free.)
  std::vector<double> prefix(n);
  double acc = 0.0;
  for (trace::NodeId i = 0; i < n; ++i) {
    acc += w[i];
    prefix[i] = acc;
  }
  const auto sample_node = [&](util::Rng& r) -> trace::NodeId {
    const double u = r.uniform() * weight_sum;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), u);
    return it == prefix.end()
               ? n - 1
               : static_cast<trace::NodeId>(it - prefix.begin());
  };

  // Time shards: a function of the expected event count alone, so the
  // trace is independent of the executor. Each shard owns a
  // SplitMix64-derived stream and a disjoint time slice; memorylessness
  // makes the sliced generation exact.
  const double expected_events = lambda * config.t_max;
  const std::size_t num_shards = std::clamp<std::size_t>(
      static_cast<std::size_t>(expected_events / 65536.0), 1, 64);
  std::vector<std::vector<trace::Contact>> parts(num_shards);
  parallel(num_shards, [&](std::size_t shard) {
    std::uint64_t state =
        config.seed + (shard + 1) * 0x9e3779b97f4a7c15ULL;
    util::Rng srng(util::splitmix64(state));
    const double lo =
        config.t_max * static_cast<double>(shard) /
        static_cast<double>(num_shards);
    const double hi =
        config.t_max * static_cast<double>(shard + 1) /
        static_cast<double>(num_shards);
    auto& contacts = parts[shard];
    contacts.reserve(static_cast<std::size_t>((hi - lo) * lambda * 1.1));
    double t = lo + srng.exponential(lambda);
    while (t < hi) {
      // Thinning down from the peak envelope to the modulated rate.
      const double accept = modulation_at(config.modulation, t) / peak;
      if (srng.bernoulli(accept)) {
        const trace::NodeId i = sample_node(srng);
        trace::NodeId j = sample_node(srng);
        while (j == i) j = sample_node(srng);
        double start = t;
        if (config.scan_interval > 0.0) {
          const double phase =
              pair_phase(config.seed, i, j, config.scan_interval);
          start = phase + std::floor((start - phase) / config.scan_interval) *
                              config.scan_interval;
          if (start < 0.0) start = 0.0;
        }
        const double duration =
            srng.exponential(1.0 / config.mean_contact_duration);
        contacts.push_back(trace::Contact::make(
            i, j, start, std::min(start + duration, config.t_max)));
      }
      t += srng.exponential(lambda);
    }
  });

  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<trace::Contact> contacts;
  contacts.reserve(total);
  for (auto& part : parts)
    contacts.insert(contacts.end(), part.begin(), part.end());
  // The ContactTrace constructor sorts into canonical order, erasing any
  // trace of the shard boundaries.
  out.trace = trace::ContactTrace(std::move(contacts), n, config.t_max);
  return out;
}

GeneratedTrace generate_metropolis(const ConferenceConfig& config) {
  return generate_metropolis(config, util::serial_parallel_for());
}

}  // namespace psn::synth
