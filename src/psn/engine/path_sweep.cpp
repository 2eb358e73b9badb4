#include "psn/engine/path_sweep.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "psn/core/workload.hpp"
#include "psn/engine/clock.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/thread_pool.hpp"

namespace psn::engine {

namespace {

/// Enumerates one message on this thread's reusable workspace: the
/// sweep's steady state allocates nothing. Workspaces never influence
/// results (paths_test's workspace-reuse equivalence).
paths::EnumerationResult enumerate_on_thread(
    const paths::KPathEnumerator& enumerator, const paths::MessageSpec& m) {
  thread_local paths::EnumeratorWorkspace workspace;
  return enumerator.enumerate(m.source, m.destination, m.t_start, workspace);
}

}  // namespace

PathSweepResult run_path_sweep(const PathSweepPlan& plan,
                               const PathSweepOptions& options) {
  if (plan.scenarios.empty())
    throw std::invalid_argument("run_path_sweep: empty scenario axis");
  if (plan.config.messages == 0)
    throw std::invalid_argument("run_path_sweep: empty message sample");
  for (const Scenario& scenario : plan.scenarios)
    if (!scenario.dataset)
      throw std::invalid_argument("run_path_sweep: scenario without dataset");

  const auto sweep_start = Clock::now();
  // Each phase is one fan-out on the caller's pool, or on the calling
  // thread without one: shards write only their own pre-sized slots, and
  // the call returns once every shard is done (rethrowing the first
  // failure).
  const util::ParallelFor parallel = options.pool != nullptr
                                         ? parallel_for(*options.pool)
                                         : util::serial_parallel_for();
  const std::size_t num_scenarios = plan.scenarios.size();
  const std::size_t messages = plan.config.messages;

  // Phase 1: shared read-only inputs — one immutable ScenarioContext
  // (dataset + space-time graph) per scenario from the process-wide cache
  // (built exactly once per cell; reused outright when a caller already
  // holds the scenario's context), and each scenario's message sample,
  // drawn from the study's isolated stream exactly as the serial study
  // drew it (always `messages` specs).
  std::vector<std::shared_ptr<const ScenarioContext>> contexts(num_scenarios);
  std::vector<std::vector<paths::MessageSpec>> samples(num_scenarios);
  parallel(num_scenarios, [&](std::size_t s) {
    const Scenario& scenario = plan.scenarios[s];
    contexts[s] = ScenarioContextCache::instance().acquire(scenario);
    samples[s] = core::uniform_message_sample(
        scenario.dataset->trace.num_nodes(), messages,
        scenario.dataset->message_horizon, plan.config.seed);
  });

  // Phase 2: the message matrix, one shard per (scenario, message) slot.
  // Each shard reads its message spec and the scenario's shared context
  // and writes only its own slot, so nothing depends on scheduling order.
  paths::EnumeratorConfig ec;
  ec.k = plan.config.k;
  ec.record_paths = plan.config.record_paths;
  std::vector<paths::KPathEnumerator> enumerators;
  enumerators.reserve(num_scenarios);
  for (std::size_t s = 0; s < num_scenarios; ++s)
    enumerators.emplace_back(*contexts[s]->graph, ec);
  std::vector<std::vector<paths::EnumerationResult>> results(
      num_scenarios, std::vector<paths::EnumerationResult>(messages));
  std::vector<std::vector<double>> walls(num_scenarios,
                                         std::vector<double>(messages, 0.0));
  parallel(num_scenarios * messages, [&](std::size_t i) {
    const std::size_t s = i / messages;
    const std::size_t m = i % messages;
    const auto start = Clock::now();
    results[s][m] = enumerate_on_thread(enumerators[s], samples[s][m]);
    walls[s][m] = seconds_since(start);
  });

  // Phase 3: aggregation, single-threaded in plan order.
  PathSweepResult out;
  out.cells.reserve(num_scenarios);
  for (std::size_t s = 0; s < num_scenarios; ++s) {
    PathCell cell;
    cell.scenario = plan.scenarios[s].name;
    cell.messages = std::move(samples[s]);
    cell.records.reserve(results[s].size());
    for (const auto& result : results[s])
      cell.records.push_back(
          paths::make_explosion_record(result, plan.config.k));
    for (const double w : walls[s]) cell.enumeration_wall_seconds += w;
    out.total_messages += results[s].size();
    if (options.keep_results) cell.results = std::move(results[s]);
    out.cells.push_back(std::move(cell));
  }
  out.wall_seconds = seconds_since(sweep_start);
  return out;
}

}  // namespace psn::engine
