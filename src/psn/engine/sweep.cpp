#include "psn/engine/sweep.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "psn/core/workload.hpp"
#include "psn/engine/clock.hpp"
#include "psn/engine/error_slot.hpp"
#include "psn/engine/result_store.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/simulator.hpp"
#include "psn/graph/space_time_graph.hpp"

namespace psn::engine {

SweepResult run_sweep(const SweepPlan& plan, const SweepOptions& options) {
  if (plan.scenarios.empty() || plan.algorithms.empty())
    throw std::invalid_argument("run_sweep: empty plan axes");
  for (const Scenario& scenario : plan.scenarios)
    if (!scenario.dataset)
      throw std::invalid_argument("run_sweep: scenario without dataset");

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
  // Pool-backed executor for the sharded graph builds (phase 1). Caller
  // participation makes it safe to invoke from inside pool tasks.
  const util::ParallelFor pool_executor = parallel_for(pool);

  // Phase 1: shared read-only inputs, built in parallel — one immutable
  // ScenarioContext (dataset + space-time graph) per scenario from the
  // process-wide cache (built exactly once per cell; reused outright when
  // a caller already holds the scenario's context), and one workload per
  // (scenario, run). Workloads are algorithm-independent by construction
  // (paired comparisons), so generating them here does the work once
  // instead of once per algorithm; tasks copy them into their records.
  std::vector<std::shared_ptr<const ScenarioContext>> contexts(
      plan.scenarios.size());
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
    pool.submit([&plan, &contexts, &errors, &pool_executor, s] {
      try {
        contexts[s] = ScenarioContextCache::instance().acquire(
            plan.scenarios[s], &pool_executor);
      } catch (...) {
        errors.capture();
      }
    });
  }
  std::vector<std::vector<forward::Message>> workloads(
      plan.scenarios.size() * plan.config.runs);
  const auto canonical_spec = [&plan](std::size_t s, std::size_t r)
      -> const RunSpec& { return plan.runs[plan.slot(s, 0, r)]; };
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
    for (std::size_t r = 0; r < plan.config.runs; ++r) {
      pool.submit([&plan, &workloads, &errors, &canonical_spec, s, r] {
        try {
          const Scenario& scenario = plan.scenarios[s];
          const RunSpec& spec = canonical_spec(s, r);
          core::WorkloadConfig wc;
          wc.mode = core::WorkloadMode::kPoissonRate;
          wc.message_rate = spec.message_rate;
          wc.horizon = scenario.dataset->message_horizon;
          wc.seed = spec.workload_seed;
          wc.size_bytes = plan.config.message_size_bytes;
          wc.ttl = plan.config.message_ttl;
          workloads[s * plan.config.runs + r] = core::generate_workload(
              scenario.dataset->trace.num_nodes(), wc);
        } catch (...) {
          errors.capture();
        }
      });
    }
  }
  pool.wait_idle();
  errors.rethrow_if_set();

  // Phase 1.5: shared observation snapshots. Each algorithm that
  // publishes a snapshot key gets its snapshot built once per scenario,
  // here, in parallel across (scenario, key) — not inside phase-2 tasks,
  // where every run of a scenario would serialize on the one build. The
  // adoption path below still calls get_or_build, so correctness never
  // depends on this wave (it is purely a scheduling optimization).
  std::vector<std::pair<std::string, std::string>> snapshot_jobs;  // key, algo
  double snapshot_wall_seconds = 0.0;
  if (options.observation == ObservationMode::kShared) {
    const auto snapshot_start = Clock::now();
    for (const std::string& name : plan.algorithms) {
      const std::string key =
          forward::make_algorithm(name)->shared_snapshot_key();
      if (key.empty()) continue;
      bool seen = false;
      for (const auto& [k, a] : snapshot_jobs) seen = seen || k == key;
      if (!seen) snapshot_jobs.emplace_back(key, name);
    }
    for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
      for (std::size_t j = 0; j < snapshot_jobs.size(); ++j) {
        pool.submit([&contexts, &snapshot_jobs, &errors, s, j] {
          try {
            const ScenarioContext& context = *contexts[s];
            const auto proto =
                forward::make_algorithm(snapshot_jobs[j].second);
            const auto [snapshot, built] =
                context.observations->get_or_build(snapshot_jobs[j].first, [&] {
                  return proto->build_shared_snapshot(*context.graph,
                                                      context.dataset->trace);
                });
            if (built) ScenarioContextCache::instance().reaccount(context);
          } catch (...) {
            errors.capture();
          }
        });
      }
    }
    pool.wait_idle();
    errors.rethrow_if_set();
    if (!snapshot_jobs.empty())
      snapshot_wall_seconds = seconds_since(snapshot_start);
  }

  // Phase 2: the run matrix. Each task is self-contained — it derives its
  // workload and algorithm instance from the spec alone and writes into
  // its plan slot, so nothing here depends on scheduling order.
  ResultStore store(plan.total_runs());
  for (std::size_t slot = 0; slot < plan.runs.size(); ++slot) {
    pool.submit([&plan, &options, &contexts, &workloads, &store, &errors,
                 &canonical_spec, slot] {
      try {
        const RunSpec& spec = plan.runs[slot];
        const Scenario& scenario = plan.scenarios[spec.scenario];
        const auto run_start = Clock::now();

        RunRecord record;
        record.spec = spec;
        // make_plan gives every algorithm of a (scenario, run) the same
        // workload stream, so the shared pre-generated workload applies;
        // hand-built plans with divergent specs fall back to generating
        // their own.
        const RunSpec& canonical = canonical_spec(spec.scenario, spec.run);
        if (spec.workload_seed == canonical.workload_seed &&
            spec.message_rate == canonical.message_rate) {
          record.run.messages =
              workloads[spec.scenario * plan.config.runs + spec.run];
        } else {
          core::WorkloadConfig wc;
          wc.mode = core::WorkloadMode::kPoissonRate;
          wc.message_rate = spec.message_rate;
          wc.horizon = scenario.dataset->message_horizon;
          wc.seed = spec.workload_seed;
          wc.size_bytes = plan.config.message_size_bytes;
          wc.ttl = plan.config.message_ttl;
          record.run.messages = core::generate_workload(
              scenario.dataset->trace.num_nodes(), wc);
        }

        const auto algorithm =
            forward::make_algorithm(plan.algorithms[spec.algorithm]);
        const ScenarioContext& context = *contexts[spec.scenario];
        if (options.observation == ObservationMode::kShared) {
          const std::string key = algorithm->shared_snapshot_key();
          if (!key.empty()) {
            // Normally a hit on the phase-1.5 prebuild; builds here only
            // when that wave was skipped or the snapshot was evicted.
            const auto [snapshot, built] =
                context.observations->get_or_build(key, [&] {
                  return algorithm->build_shared_snapshot(
                      *context.graph, context.dataset->trace);
                });
            if (built) ScenarioContextCache::instance().reaccount(context);
            algorithm->adopt_shared_snapshot(snapshot);
          }
        }
        forward::SimulationRequest request;
        request.algorithm = algorithm.get();
        request.graph = context.graph.get();
        request.trace = &context.dataset->trace;
        request.messages = &record.run.messages;
        request.traffic = plan.config.traffic;
        request.seed = spec.sim_seed;
        request.replay = options.replay;
        request.flood_kernel = options.flood_kernel;
        request.contact_scan = options.contact_scan;
        // One workspace per worker thread, reused across every run the
        // thread executes: the sweep's steady state simulates without
        // heap allocation. Workspaces never influence results (asserted
        // by forward_test's workspace-reuse equivalence).
        thread_local forward::SimulatorWorkspace workspace;
        record.run.result = forward::simulate(request, workspace);

        record.wall_seconds = seconds_since(run_start);
        store.put(slot, std::move(record));
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_set();

  // Phase 3: aggregation, single-threaded in plan order.
  SweepResult result;
  result.num_scenarios = plan.scenarios.size();
  result.num_algorithms = plan.algorithms.size();
  result.threads = pool.size();  // actual worker count, after clamping.
  result.total_runs = plan.total_runs();
  result.cells.reserve(result.num_scenarios * result.num_algorithms);
  for (std::size_t s = 0; s < plan.scenarios.size(); ++s) {
    for (std::size_t a = 0; a < plan.algorithms.size(); ++a) {
      CellSummary cell;
      cell.scenario = plan.scenarios[s].name;
      cell.algorithm = plan.algorithms[a];

      std::vector<forward::Run> runs;
      runs.reserve(plan.config.runs);
      std::uint64_t transmissions = 0;
      std::size_t messages = 0;
      for (std::size_t r = 0; r < plan.config.runs; ++r) {
        RunRecord record = store.take(plan.slot(s, a, r));
        cell.run_walls.push_back(record.wall_seconds);
        cell.truncated_relay_steps += record.run.result.truncated_relay_steps;
        cell.expirations += record.run.result.expirations;
        cell.evictions += record.run.result.evictions;
        cell.drops += record.run.result.drops;
        cell.budget_blocked += record.run.result.budget_blocked;
        cell.buffer_rejections += record.run.result.buffer_rejections;
        transmissions += record.run.result.transmissions;
        messages += record.run.messages.size();
        runs.push_back(std::move(record.run));
      }
      cell.overall = forward::aggregate_performance(cell.algorithm, runs);
      cell.by_pair_type = forward::split_by_pair_type(
          cell.algorithm, runs, plan.scenarios[s].dataset->rates);
      if (options.keep_delays) cell.delays = forward::pooled_delays(runs);
      cell.messages_offered = messages;
      if (messages > 0)
        cell.cost_per_message = static_cast<double>(transmissions) /
                                static_cast<double>(messages);
      result.cells.push_back(std::move(cell));
    }
  }
  result.wall_seconds = seconds_since(sweep_start);
  result.snapshot_wall_seconds = snapshot_wall_seconds;
  return result;
}

}  // namespace psn::engine
