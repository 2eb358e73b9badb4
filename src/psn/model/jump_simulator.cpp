#include "psn/model/jump_simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "psn/util/rng.hpp"

namespace psn::model {

namespace {
/// Counts saturate here to avoid overflow during the explosive phase;
/// chosen far above any k used in analyses.
constexpr std::uint64_t kCountCap = std::uint64_t{1} << 62;
}  // namespace

std::vector<JumpSample> run_jump_simulation(const JumpSimConfig& config,
                                            ModelWorkspace& workspace,
                                            JumpRunTelemetry* telemetry) {
  if (config.population < 2)
    throw std::invalid_argument("jump sim needs population >= 2");

  util::Rng rng(config.seed);
  const std::size_t n = config.population;

  auto& s = workspace.jump_state;
  s.assign(n, 0);
  s[0] = 1;  // the source holds the single initial path.

  // Aggregate contact process: opportunities arrive at rate N * lambda;
  // each picks an ordered pair (initiator, uniform other peer).
  const double total_rate = static_cast<double>(n) * config.lambda;

  std::vector<JumpSample> out;
  if (config.samples == 0) return out;
  out.reserve(config.samples);
  const double sample_every =
      config.samples > 1 ? config.t_end / static_cast<double>(config.samples - 1)
                         : config.t_end;
  double next_sample = 0.0;

  const auto take_sample = [&](double t) {
    JumpSample sample;
    sample.t = t;
    double sum = 0.0;
    for (const auto v : s) sum += static_cast<double>(v);
    sample.mean_paths = sum / static_cast<double>(n);
    double var = 0.0;
    for (const auto v : s) {
      const double d = static_cast<double>(v) - sample.mean_paths;
      var += d * d;
    }
    sample.variance_paths = var / static_cast<double>(n);
    sample.low_density.assign(11, 0.0);
    for (const auto v : s)
      if (v <= 10) sample.low_density[static_cast<std::size_t>(v)] += 1.0;
    for (auto& d : sample.low_density) d /= static_cast<double>(n);
    out.push_back(std::move(sample));
  };

  double t = 0.0;
  while (t < config.t_end) {
    const double dt = rng.exponential(total_rate);
    const double t_next = t + dt;
    while (next_sample <= std::min(t_next, config.t_end)) {
      take_sample(next_sample);
      next_sample += sample_every;
      if (out.size() >= config.samples) break;
    }
    // Nothing past the last sample is observable: stop simulating instead
    // of burning events until t_end.
    if (out.size() >= config.samples) break;
    if (t_next >= config.t_end) break;
    t = t_next;

    // Pick initiator and a distinct uniform peer.
    const auto initiator = static_cast<std::size_t>(rng.uniform_index(n));
    auto peer = static_cast<std::size_t>(rng.uniform_index(n - 1));
    if (peer >= initiator) ++peer;
    if (telemetry != nullptr) ++telemetry->events;

    // Transition: S_peer += S_initiator (paths flow with the contact),
    // saturating at kCountCap.
    const std::uint64_t gain = s[initiator];
    if (gain > 0) {
      if (s[peer] > kCountCap - gain)
        s[peer] = kCountCap;
      else
        s[peer] += gain;
    }
  }
  // Catch-up for grids that outlast the event horizon: the state is final,
  // so the remaining samples repeat it — stamped no later than t_end (the
  // grid's floating-point accumulation must not leak past the horizon).
  while (out.size() < config.samples)
    take_sample(std::min(next_sample, config.t_end));
  return out;
}

std::vector<JumpSample> run_jump_simulation(const JumpSimConfig& config) {
  ModelWorkspace workspace;
  return run_jump_simulation(config, workspace, nullptr);
}

}  // namespace psn::model
