#include "psn/engine/path_sweep.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "psn/core/workload.hpp"
#include "psn/engine/clock.hpp"
#include "psn/engine/error_slot.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/thread_pool.hpp"

namespace psn::engine {

namespace {

/// Submits one task per message: enumerate into the slot-addressed
/// `results[i]`, accumulating the per-message wall into `walls[i]`.
/// Callers wait_idle() and rethrow before reading either.
void submit_sample(ThreadPool& pool, ErrorSlot& errors,
                   const paths::KPathEnumerator& enumerator,
                   const std::vector<paths::MessageSpec>& messages,
                   std::vector<paths::EnumerationResult>& results,
                   std::vector<double>* walls) {
  for (std::size_t i = 0; i < messages.size(); ++i) {
    pool.submit([&enumerator, &messages, &results, walls, &errors, i] {
      try {
        const auto start = Clock::now();
        const paths::MessageSpec& m = messages[i];
        // One workspace per worker thread, reused across every message
        // the thread enumerates: the sweep's steady state allocates
        // nothing. Workspaces never influence results (paths_test's
        // workspace-reuse equivalence).
        thread_local paths::EnumeratorWorkspace workspace;
        results[i] =
            enumerator.enumerate(m.source, m.destination, m.t_start,
                                 workspace);
        if (walls != nullptr) (*walls)[i] = seconds_since(start);
      } catch (...) {
        errors.capture();
      }
    });
  }
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
  // Run on the caller's pool when one is provided (the psn_serve batching
  // hook); otherwise own a private pool for the duration of the sweep.
  std::optional<ThreadPool> owned_pool;
  ThreadPool& pool =
      options.pool != nullptr
          ? *options.pool
          : owned_pool.emplace(options.threads == 0
                                   ? ThreadPool::hardware_threads()
                                   : options.threads);
  ErrorSlot errors;

  // Phase 1: shared read-only inputs — one immutable ScenarioContext
  // (dataset + space-time graph) per scenario from the process-wide cache
  // (built exactly once per cell; reused outright when a caller already
  // holds the scenario's context), and each scenario's message sample,
  // drawn from the study's isolated stream exactly as the serial study
  // drew it.
  std::vector<std::shared_ptr<const ScenarioContext>> contexts(
      plan.scenarios.size());
  std::vector<std::vector<paths::MessageSpec>> samples(plan.scenarios.size());
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
    pool.submit([&plan, &contexts, &samples, &errors, s] {
      try {
        const Scenario& scenario = plan.scenarios[s];
        contexts[s] = ScenarioContextCache::instance().acquire(scenario);
        samples[s] = core::uniform_message_sample(
            scenario.dataset->trace.num_nodes(), plan.config.messages,
            scenario.dataset->message_horizon, plan.config.seed);
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_set();

  // Phase 2: the message matrix. Each task is self-contained — it reads
  // its message spec and the scenario's shared context, and writes into
  // its (scenario, message) slot, so nothing depends on scheduling order.
  paths::EnumeratorConfig ec;
  ec.k = plan.config.k;
  ec.record_paths = plan.config.record_paths;
  std::vector<paths::KPathEnumerator> enumerators;
  enumerators.reserve(plan.scenarios.size());
  std::vector<std::vector<paths::EnumerationResult>> results(
      plan.scenarios.size());
  std::vector<std::vector<double>> walls(plan.scenarios.size());
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
    enumerators.emplace_back(*contexts[s]->graph, ec);
    results[s].resize(samples[s].size());
    walls[s].assign(samples[s].size(), 0.0);
  }
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s)
    submit_sample(pool, errors, enumerators[s], samples[s], results[s],
                  &walls[s]);
  pool.wait_idle();
  errors.rethrow_if_set();

  // Phase 3: aggregation, single-threaded in plan order.
  PathSweepResult out;
  out.threads = pool.size();  // actual worker count, after clamping.
  out.cells.reserve(plan.scenarios.size());
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
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

std::vector<paths::EnumerationResult> enumerate_sample(
    const graph::SpaceTimeGraph& graph,
    const std::vector<paths::MessageSpec>& messages,
    const paths::EnumeratorConfig& config, std::size_t threads) {
  const std::size_t workers =
      threads == 0 ? ThreadPool::hardware_threads() : threads;
  ThreadPool pool(workers);
  ErrorSlot errors;
  const paths::KPathEnumerator enumerator(graph, config);
  std::vector<paths::EnumerationResult> results(messages.size());
  submit_sample(pool, errors, enumerator, messages, results, nullptr);
  pool.wait_idle();
  errors.rethrow_if_set();
  return results;
}

}  // namespace psn::engine
