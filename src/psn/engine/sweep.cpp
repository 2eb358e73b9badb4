#include "psn/engine/sweep.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "psn/core/workload.hpp"
#include "psn/engine/clock.hpp"
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
  // Every phase is one fan-out on the caller's pool, or on the calling
  // thread without one: each shard writes only its own pre-sized slot,
  // and the call returns once every shard is done (rethrowing the first
  // failure).
  const util::ParallelFor parallel = options.pool != nullptr
                                         ? parallel_for(*options.pool)
                                         : util::serial_parallel_for();
  const std::size_t num_scenarios = plan.scenarios.size();
  const std::size_t num_algorithms = plan.algorithms.size();
  const std::size_t runs = plan.config.runs;
  const std::uint64_t master_seed = plan.config.master_seed;

  // Phase 1: shared read-only inputs, built in parallel — one immutable
  // ScenarioContext (dataset + space-time graph) per scenario from the
  // process-wide cache (built exactly once per cell; reused outright when
  // a caller already holds the scenario's context), and one workload per
  // (scenario, run). Both share one index space, so the context builds
  // overlap the workload draws. Every algorithm of a (scenario, run) sees
  // the same workload (paired comparisons), so it is drawn here once and
  // read in place by all of them.
  std::vector<std::shared_ptr<const ScenarioContext>> contexts(num_scenarios);
  std::vector<std::vector<forward::Message>> workloads(num_scenarios * runs);
  parallel(num_scenarios + workloads.size(), [&](std::size_t i) {
    if (i < num_scenarios) {
      contexts[i] = ScenarioContextCache::instance().acquire(plan.scenarios[i]);
      return;
    }
    const std::size_t w = i - num_scenarios;  // s * runs + r.
    const Scenario& scenario = plan.scenarios[w / runs];
    core::WorkloadConfig wc;
    wc.message_rate = plan.config.message_rate;
    wc.horizon = scenario.dataset->message_horizon;
    wc.seed = workload_stream_seed(master_seed, w % runs);
    wc.size_bytes = plan.config.message_size_bytes;
    wc.ttl = plan.config.message_ttl;
    workloads[w] =
        core::generate_workload(scenario.dataset->trace.num_nodes(), wc);
  });

  // Phase 1.5: shared observation snapshots, the sweep's one snapshot
  // path. Each distinct shared_snapshot_key() among the plan's algorithms
  // gets its snapshot found or built once per scenario, here, in parallel
  // across (scenario, key) — not inside phase-2 shards, where every run
  // of a scenario would serialize on the one build. The sweep holds every
  // context, and a store never drops a snapshot it has published, so the
  // slots stay valid for phase 2 to adopt by index.
  constexpr std::size_t kNoSnapshot = static_cast<std::size_t>(-1);
  std::vector<std::pair<std::string, std::string>> snapshot_jobs;  // key, algo
  // snapshot_job[a]: algorithm a's index into snapshot_jobs, or
  // kNoSnapshot when it publishes no key or observation is kPerRun.
  std::vector<std::size_t> snapshot_job(plan.algorithms.size(), kNoSnapshot);
  // snapshots[s * snapshot_jobs.size() + j]: job j's snapshot of scenario s.
  std::vector<ObservationStore::SnapshotPtr> snapshots;
  double snapshot_wall_seconds = 0.0;
  if (options.observation == ObservationMode::kShared) {
    const auto snapshot_start = Clock::now();
    for (std::size_t a = 0; a < plan.algorithms.size(); ++a) {
      const std::string& name = plan.algorithms[a];
      std::string key = forward::make_algorithm(name)->shared_snapshot_key();
      if (key.empty()) continue;
      std::size_t j = 0;
      while (j < snapshot_jobs.size() && snapshot_jobs[j].first != key) ++j;
      if (j == snapshot_jobs.size())
        snapshot_jobs.emplace_back(std::move(key), name);
      snapshot_job[a] = j;
    }
    snapshots.resize(num_scenarios * snapshot_jobs.size());
    parallel(snapshots.size(), [&](std::size_t i) {
      const ScenarioContext& context = *contexts[i / snapshot_jobs.size()];
      const auto& [key, name] = snapshot_jobs[i % snapshot_jobs.size()];
      const auto proto = forward::make_algorithm(name);
      auto [snapshot, built] = context.observations->get_or_build(key, [&] {
        return proto->build_shared_snapshot(*context.graph,
                                            context.dataset->trace);
      });
      if (built) ScenarioContextCache::instance().reaccount(context);
      snapshots[i] = std::move(snapshot);
    });
    if (!snapshot_jobs.empty())
      snapshot_wall_seconds = seconds_since(snapshot_start);
  }

  // Phase 2: the run matrix, one shard per plan slot. Each shard decodes
  // its (scenario, algorithm, run) from the slot, reads its workload in
  // place and writes only its own slot, so nothing here depends on
  // scheduling order.
  std::vector<forward::SimulationResult> run_results(plan.total_runs());
  std::vector<double> run_walls(plan.total_runs(), 0.0);
  parallel(plan.total_runs(), [&](std::size_t slot) {
    const std::size_t r = slot % runs;
    const std::size_t a = slot / runs % num_algorithms;
    const std::size_t s = slot / runs / num_algorithms;
    const auto run_start = Clock::now();
    const auto algorithm = forward::make_algorithm(plan.algorithms[a]);
    const ScenarioContext& context = *contexts[s];
    if (const std::size_t j = snapshot_job[a]; j != kNoSnapshot)
      algorithm->adopt_shared_snapshot(snapshots[s * snapshot_jobs.size() + j]);
    forward::SimulationRequest request;
    request.algorithm = algorithm.get();
    request.graph = context.graph.get();
    request.trace = &context.dataset->trace;
    request.messages = &workloads[s * runs + r];
    request.traffic = plan.config.traffic;
    request.seed = sim_stream_seed(master_seed, r);
    request.replay = options.replay;
    request.flood_kernel = options.flood_kernel;
    request.contact_scan = options.contact_scan;
    // One workspace per worker thread, reused across every run the
    // thread executes: the sweep's steady state simulates without
    // heap allocation. Workspaces never influence results (asserted
    // by forward_test's workspace-reuse equivalence).
    thread_local forward::SimulatorWorkspace workspace;
    run_results[slot] = forward::simulate(request, workspace);
    run_walls[slot] = seconds_since(run_start);
  });

  // Phase 3: aggregation, single-threaded in plan order. Each cell's runs
  // fold into its numbers in one pass, in (run, message) order.
  SweepResult result;
  result.num_scenarios = num_scenarios;
  result.num_algorithms = num_algorithms;
  result.total_runs = plan.total_runs();
  result.cells.reserve(num_scenarios * num_algorithms);
  for (std::size_t s = 0; s < num_scenarios; ++s) {
    for (std::size_t a = 0; a < num_algorithms; ++a) {
      CellSummary cell;
      cell.scenario = plan.scenarios[s].name;
      cell.algorithm = plan.algorithms[a];
      forward::PerformancePool pooled(cell.algorithm,
                                      plan.scenarios[s].dataset->rates);
      std::uint64_t transmissions = 0;
      for (std::size_t r = 0; r < runs; ++r) {
        const std::size_t slot = plan.slot(s, a, r);
        const forward::SimulationResult& run = run_results[slot];
        const std::vector<forward::Message>& messages = workloads[s * runs + r];
        pooled.add_run(messages, run.outcomes,
                       options.keep_delays ? &cell.delays : nullptr);
        cell.run_walls.push_back(run_walls[slot]);
        cell.truncated_relay_steps += run.truncated_relay_steps;
        cell.expirations += run.expirations;
        cell.evictions += run.evictions;
        cell.drops += run.drops;
        cell.budget_blocked += run.budget_blocked;
        cell.buffer_rejections += run.buffer_rejections;
        cell.effort += run.effort;
        transmissions += run.transmissions;
        cell.messages_offered += messages.size();
      }
      cell.overall = pooled.overall();
      cell.by_pair_type = pooled.by_pair_type();
      if (cell.messages_offered > 0)
        cell.cost_per_message = static_cast<double>(transmissions) /
                                static_cast<double>(cell.messages_offered);
      result.cells.push_back(std::move(cell));
    }
  }
  result.wall_seconds = seconds_since(sweep_start);
  result.snapshot_wall_seconds = snapshot_wall_seconds;
  return result;
}

}  // namespace psn::engine
