#include "psn/engine/model_sweep.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "psn/engine/clock.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/model/workspace.hpp"
#include "psn/stats/summary.hpp"
#include "psn/util/rng.hpp"

namespace psn::engine {

namespace {

// Stream-role salts: xored into the scenario root before slot indexing,
// so the jump, population, pair, and message lattices never collide.
constexpr std::uint64_t kJumpSalt = 0x6a756d707265706cULL;        // "jumprepl"
constexpr std::uint64_t kMcPopulationSalt = 0x6d63706f70ULL;      // "mcpop"
constexpr std::uint64_t kMcPairSalt = 0x6d63706169727320ULL;      // "mcpairs "
constexpr std::uint64_t kMcMessageSalt = 0x6d636d736753ULL;       // "mcmsgS"

/// Root of one scenario's substream lattice.
std::uint64_t scenario_root(std::uint64_t master_seed,
                            std::size_t scenario) noexcept {
  return model_substream_seed(master_seed,
                              static_cast<std::uint64_t>(scenario));
}

}  // namespace

std::uint64_t model_substream_seed(std::uint64_t seed,
                                   std::uint64_t slot) noexcept {
  // SplitMix64 advances its state by the golden gamma once per draw, so
  // the state of draw number `slot` is seed + slot * gamma; taking that
  // draw's output reaches any slot in O(1).
  std::uint64_t state = seed + slot * 0x9e3779b97f4a7c15ULL;
  return util::splitmix64(state);
}

std::uint64_t model_jump_replica_seed(std::uint64_t master_seed,
                                      std::size_t scenario,
                                      std::size_t replica) noexcept {
  return model_substream_seed(scenario_root(master_seed, scenario) ^ kJumpSalt,
                              static_cast<std::uint64_t>(replica));
}

std::uint64_t model_mc_population_seed(std::uint64_t master_seed,
                                       std::size_t scenario) noexcept {
  return model_substream_seed(
      scenario_root(master_seed, scenario) ^ kMcPopulationSalt, 0);
}

std::uint64_t model_mc_pair_seed(std::uint64_t master_seed,
                                 std::size_t scenario) noexcept {
  return model_substream_seed(
      scenario_root(master_seed, scenario) ^ kMcPairSalt, 0);
}

std::uint64_t model_mc_message_seed(std::uint64_t master_seed,
                                    std::size_t scenario,
                                    std::size_t message) noexcept {
  return model_substream_seed(
      scenario_root(master_seed, scenario) ^ kMcMessageSalt,
      static_cast<std::uint64_t>(message));
}

std::vector<std::string> model_scenario_names() {
  return {"model_100", "model_1k", "model_10k", "model_100k"};
}

ModelScenario make_model_scenario(std::string_view name) {
  // All tiers share the §5.1 jump shape (lambda = 0.05, 41-point grid);
  // the horizon grows with ln N so every tier's trajectory spans the same
  // dynamic range (first path at ln N / lambda, saturation at twice
  // that). The MC horizon and message budget shrink as N grows: the
  // event rate is proportional to the population's summed rates, so the
  // large tiers cap the per-message worst case (no-explosion messages
  // burn total_rate * t_end events) to keep the bench a per-PR
  // trajectory point rather than a long-haul run.
  ModelScenario scenario;
  scenario.name = std::string(name);
  scenario.jump.lambda = 0.05;
  scenario.jump.samples = 41;
  scenario.mc.k = 2000;
  if (name == "model_100") {
    scenario.jump.population = 100;
    scenario.jump.t_end = 200.0;
    scenario.mc.population = 100;
    scenario.mc.max_rate = 0.12;
    scenario.mc.t_end = 7200.0;
    scenario.mc.messages = 200;
  } else if (name == "model_1k") {
    scenario.jump.population = 1000;
    scenario.jump.t_end = 280.0;
    scenario.mc.population = 1000;
    scenario.mc.max_rate = 0.10;
    scenario.mc.t_end = 7200.0;
    scenario.mc.messages = 64;
  } else if (name == "model_10k") {
    scenario.jump.population = 10000;
    scenario.jump.t_end = 370.0;
    scenario.mc.population = 10000;
    scenario.mc.max_rate = 0.08;
    scenario.mc.t_end = 3600.0;
    scenario.mc.messages = 16;
  } else if (name == "model_100k") {
    scenario.jump.population = 100000;
    scenario.jump.t_end = 460.0;
    scenario.mc.population = 100000;
    scenario.mc.max_rate = 0.06;
    scenario.mc.t_end = 1800.0;
    scenario.mc.messages = 8;
  } else {
    std::ostringstream message;
    message << "make_model_scenario: unknown scenario \"" << name
            << "\"; registered:";
    for (const auto& known : model_scenario_names())
      message << ' ' << known;
    throw std::invalid_argument(message.str());
  }
  return scenario;
}

ModelSweepResult run_model_sweep(const ModelSweepPlan& plan,
                                 const ModelSweepOptions& options) {
  if (plan.scenarios.empty())
    throw std::invalid_argument("run_model_sweep: empty scenario axis");
  for (const ModelScenario& scenario : plan.scenarios) {
    if (plan.config.jump_replicas > 0 && scenario.jump.population < 2)
      throw std::invalid_argument(
          "run_model_sweep: jump scenario needs population >= 2");
    if (scenario.mc.messages > 0 && scenario.mc.population < 2)
      throw std::invalid_argument(
          "run_model_sweep: MC scenario needs population >= 2");
  }

  const auto sweep_start = Clock::now();
  // Each phase is one fan-out on the caller's pool, or on the calling
  // thread without one: shards write only their own pre-sized slots, and
  // the call returns once every shard is done (rethrowing the first
  // failure).
  const util::ParallelFor parallel = options.pool != nullptr
                                         ? parallel_for(*options.pool)
                                         : util::serial_parallel_for();

  const std::size_t num_scenarios = plan.scenarios.size();
  const std::size_t replicas = plan.config.jump_replicas;
  const std::uint64_t master = plan.config.master_seed;

  // Phase 1: shared per-scenario inputs — the MC population and the
  // (source, destination) pair sample, each drawn serially from its own
  // substream so the choice is thread-invariant. Parallel across
  // scenarios; both are immutable and read-only afterwards.
  struct PairSample {
    std::size_t source = 0;
    std::size_t destination = 0;
  };
  std::vector<model::HeterogeneousPopulation> populations(num_scenarios);
  std::vector<std::vector<PairSample>> pairs(num_scenarios);
  parallel(num_scenarios, [&](std::size_t s) {
    const model::HeterogeneousMcConfig& config = plan.scenarios[s].mc;
    if (config.messages == 0) return;
    util::Rng population_rng(model_mc_population_seed(master, s));
    populations[s] =
        model::make_heterogeneous_population(config, population_rng);
    util::Rng pair_rng(model_mc_pair_seed(master, s));
    const std::size_t n = config.population;
    pairs[s].reserve(config.messages);
    for (std::size_t m = 0; m < config.messages; ++m) {
      PairSample pair;
      pair.source = static_cast<std::size_t>(pair_rng.uniform_index(n));
      pair.destination =
          static_cast<std::size_t>(pair_rng.uniform_index(n - 1));
      if (pair.destination >= pair.source) ++pair.destination;
      pairs[s].push_back(pair);
    }
  });

  // Phase 2: the replica/message matrix, one shard per unit: scenario s
  // owns units [first_unit[s], first_unit[s + 1]), its jump replicas
  // first, then its MC messages. Each shard seeds its own substream from
  // (master, scenario, slot), reads only immutable shared inputs, and
  // writes only its own slot, so nothing depends on scheduling order.
  // One ModelWorkspace per worker thread: the O(N) state vectors are
  // reused across every unit the thread runs.
  std::vector<std::vector<std::vector<model::JumpSample>>> jump_runs(
      num_scenarios);
  std::vector<std::vector<model::JumpRunTelemetry>> jump_telemetry(
      num_scenarios);
  std::vector<std::vector<double>> jump_walls(num_scenarios);
  std::vector<std::vector<model::McMessageResult>> mc_results(num_scenarios);
  std::vector<std::vector<double>> mc_walls(num_scenarios);
  std::vector<std::size_t> first_unit(num_scenarios + 1, 0);
  for (std::size_t s = 0; s < num_scenarios; ++s) {
    jump_runs[s].resize(replicas);
    jump_telemetry[s].resize(replicas);
    jump_walls[s].assign(replicas, 0.0);
    const std::size_t messages = plan.scenarios[s].mc.messages;
    mc_results[s].resize(messages);
    mc_walls[s].assign(messages, 0.0);
    first_unit[s + 1] = first_unit[s] + replicas + messages;
  }
  parallel(first_unit.back(), [&](std::size_t unit) {
    const std::size_t s = static_cast<std::size_t>(
        std::upper_bound(first_unit.begin(), first_unit.end(), unit) -
        first_unit.begin() - 1);
    const std::size_t u = unit - first_unit[s];
    const auto start = Clock::now();
    thread_local model::ModelWorkspace workspace;
    if (u < replicas) {
      model::JumpSimConfig config = plan.scenarios[s].jump;
      config.seed = model_jump_replica_seed(master, s, u);
      model::JumpRunTelemetry telemetry;
      jump_runs[s][u] =
          model::run_jump_simulation(config, workspace, &telemetry);
      jump_telemetry[s][u] = telemetry;
      jump_walls[s][u] = seconds_since(start);
      return;
    }
    const std::size_t m = u - replicas;
    util::Rng rng(model_mc_message_seed(master, s, m));
    mc_results[s][m] = model::simulate_mc_message(
        populations[s], plan.scenarios[s].mc, pairs[s][m].source,
        pairs[s][m].destination, rng, workspace.mc_state);
    mc_walls[s][m] = seconds_since(start);
  });

  // Phase 3: aggregation, single-threaded in slot order (replica-major,
  // then message) — deterministic regardless of completion order.
  ModelSweepResult out;
  out.cells.reserve(num_scenarios);
  for (std::size_t s = 0; s < num_scenarios; ++s) {
    ModelCell cell;
    cell.scenario = plan.scenarios[s].name;
    cell.population = replicas > 0 ? plan.scenarios[s].jump.population
                                   : plan.scenarios[s].mc.population;
    cell.jump_replicas = replicas;

    if (replicas > 0) {
      // Every replica shares the scenario's sample grid (count and times
      // are pure functions of the config), so ensemble statistics are a
      // per-index Welford pass across replicas.
      const std::size_t num_samples = jump_runs[s][0].size();
      cell.trajectory.resize(num_samples);
      for (std::size_t i = 0; i < num_samples; ++i) {
        stats::Accumulator mean_acc;
        EnsemblePoint& point = cell.trajectory[i];
        point.t = jump_runs[s][0][i].t;
        point.mean_low_density.assign(
            jump_runs[s][0][i].low_density.size(), 0.0);
        double variance_sum = 0.0;
        for (std::size_t r = 0; r < replicas; ++r) {
          const model::JumpSample& sample = jump_runs[s][r][i];
          mean_acc.add(sample.mean_paths);
          variance_sum += sample.variance_paths;
          for (std::size_t k = 0; k < point.mean_low_density.size(); ++k)
            point.mean_low_density[k] += sample.low_density[k];
        }
        point.mean_paths = mean_acc.mean();
        point.var_mean_paths = mean_acc.variance();
        point.mean_variance_paths =
            variance_sum / static_cast<double>(replicas);
        for (auto& density : point.mean_low_density)
          density /= static_cast<double>(replicas);
      }
      for (std::size_t r = 0; r < replicas; ++r) {
        cell.jump_events += jump_telemetry[s][r].events;
        cell.jump_wall_seconds += jump_walls[s][r];
      }
      out.total_replicas += replicas;
    }

    cell.quadrants = core::summarize_mc_by_quadrant(mc_results[s]);
    for (const double wall : mc_walls[s]) cell.mc_wall_seconds += wall;
    out.total_messages += mc_results[s].size();
    if (options.keep_messages) cell.messages = std::move(mc_results[s]);

    out.cells.push_back(std::move(cell));
  }
  out.wall_seconds = seconds_since(sweep_start);
  return out;
}

}  // namespace psn::engine
