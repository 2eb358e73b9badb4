// forward_city: the paper's §4 forwarding comparison at the city tier.
//
// Closed batch loop: back-to-back engine::run_sweep calls on city_2048
// (Epidemic, FRESH, PRoPHET, Spray+Wait; 8 runs each at 0.01 msg/s with
// unlimited traffic) on one 4-thread pool, each call with a master seed
// derived from the workload seed. Set-up — dataset, graph, then each
// algorithm's observation snapshot through ObservationStore::get_or_build —
// is timed once before the first sweep: the serial PRoPHET snapshot
// dominates it, which is why this workload sets up once per run where the
// cheaper workloads take the median of several.
//
// Operation: one forwarding run; its latency is the run's wall
// (CellSummary::run_walls). The check re-runs two slots per algorithm with
// the oracle options (dense replay, scalar flood kernel, full contact scan)
// and compares every deterministic cell field bit for bit.

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "arrivals.hpp"
#include "digest.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace psn;

constexpr const char* kScenario = "city_2048";
const std::vector<std::string> kAlgorithms = {"Epidemic", "FRESH", "PRoPHET",
                                              "Spray+Wait"};
constexpr std::size_t kThreads = 4;
constexpr std::size_t kRunsPerSweep = 8;
constexpr std::size_t kCheckRuns = 2;
constexpr double kMessageRate = 0.01;
constexpr std::uint64_t kSweepStream = 1;
constexpr std::uint64_t kCheckStream = 2;

engine::SweepPlan make_sweep_plan(const engine::Scenario& scenario,
                                  std::uint64_t master_seed,
                                  std::size_t runs) {
  engine::PlanConfig config;
  config.runs = runs;
  config.master_seed = master_seed;
  config.message_rate = kMessageRate;
  return engine::make_plan({scenario}, kAlgorithms, config);
}

void add_performance(Digest& d, const forward::Performance& p) {
  d.add(p.algorithm).add(p.success_rate).add(p.average_delay)
      .add(p.average_hops).add(static_cast<std::uint64_t>(p.messages))
      .add(static_cast<std::uint64_t>(p.delivered));
}

/// Every deterministic field of a cell (walls excluded).
std::uint64_t cell_digest(const engine::CellSummary& cell) {
  Digest d;
  d.add(cell.scenario).add(cell.algorithm);
  add_performance(d, cell.overall);
  for (const forward::Performance& p : cell.by_pair_type.per_type)
    add_performance(d, p);
  d.add(static_cast<std::uint64_t>(cell.delays.size()));
  for (const double delay : cell.delays) d.add(delay);
  d.add(cell.cost_per_message).add(cell.truncated_relay_steps)
      .add(cell.expirations).add(cell.evictions).add(cell.drops)
      .add(cell.budget_blocked).add(cell.buffer_rejections)
      .add(static_cast<std::uint64_t>(cell.messages_offered));
  return d.value();
}

struct Setup {
  engine::Scenario scenario;
  std::shared_ptr<const engine::ScenarioContext> context;
  double dataset_s = 0.0;
  double graph_s = 0.0;
  double total_s = 0.0;
  double bytes_per_contact = 0.0;
  std::map<std::string, double> snapshot_s;  ///< by algorithm.
  std::uint64_t snapshot_bytes = 0;
};

Setup set_up(engine::ThreadPool& pool, Tracer& tracer) {
  Setup out;
  const auto start = std::chrono::steady_clock::now();
  {
    Span span(tracer, "engine.make_scenario_by_name");
    out.scenario = engine::make_scenario_by_name(kScenario);
  }
  out.dataset_s = seconds_since(start);
  auto& cache = engine::ScenarioContextCache::instance();
  const auto graph_start = std::chrono::steady_clock::now();
  {
    Span span(tracer, "engine.ScenarioContextCache::acquire");
    const util::ParallelFor executor = engine::parallel_for(pool);
    out.context = cache.acquire(out.scenario, &executor);
  }
  out.graph_s = seconds_since(graph_start);
  out.bytes_per_contact =
      static_cast<double>(engine::ScenarioContextCache::context_bytes(*out.context)) /
      static_cast<double>(out.scenario.dataset->trace.size());
  for (const std::string& name : kAlgorithms) {
    const auto algorithm = forward::make_algorithm(name);
    const std::string key = algorithm->shared_snapshot_key();
    if (key.empty()) continue;
    const auto snapshot_start = std::chrono::steady_clock::now();
    Span span(tracer, "engine.ObservationStore::get_or_build");
    const auto [snapshot, built] = out.context->observations->get_or_build(
        key, [&] {
          return algorithm->build_shared_snapshot(*out.context->graph,
                                                  out.context->dataset->trace);
        });
    if (built) cache.reaccount(*out.context);
    out.snapshot_s[name] = seconds_since(snapshot_start);
    out.snapshot_bytes += snapshot->bytes();
  }
  out.total_s = seconds_since(start);
  return out;
}

struct WarmPhase {
  WarmFigures figures;
  std::size_t runs = 0;
  std::vector<double> sweep_walls;
  std::vector<double> run_walls;
  std::map<std::string, std::vector<double>> run_walls_by_algorithm;
  std::uint64_t first_sweep_transmissions = 0;
};

WarmPhase warm(const Setup& setup, engine::ThreadPool& pool,
               const Options& options, Tracer& tracer) {
  WarmPhase out;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const engine::SweepPlan plan = make_sweep_plan(
        setup.scenario, derive_seed(options.seed, kSweepStream, i),
        kRunsPerSweep);
    engine::SweepOptions sweep_options;
    sweep_options.pool = &pool;
    sweep_options.keep_delays = false;
    engine::SweepResult result;
    {
      Span span(tracer, "engine.run_sweep");
      result = engine::run_sweep(plan, sweep_options);
    }
    out.runs += result.total_runs;
    out.sweep_walls.push_back(result.wall_seconds);
    for (const engine::CellSummary& cell : result.cells) {
      auto& walls = out.run_walls_by_algorithm[cell.algorithm];
      walls.insert(walls.end(), cell.run_walls.begin(), cell.run_walls.end());
      out.run_walls.insert(out.run_walls.end(), cell.run_walls.begin(),
                           cell.run_walls.end());
      if (i == 0)
        out.first_sweep_transmissions += static_cast<std::uint64_t>(
            std::llround(cell.cost_per_message *
                         static_cast<double>(cell.messages_offered)));
    }
    if (seconds_since(start) >= options.seconds) break;
  }
  out.figures.ops_per_s =
      static_cast<double>(out.runs) / seconds_since(start);
  out.figures.latency_p50_s = median(out.run_walls);
  return out;
}

/// Re-runs kCheckRuns slots per algorithm on the fast path and on the
/// oracle options; every cell must match bit for bit.
void check(const Setup& setup, engine::ThreadPool& pool,
           const Options& options, Report& report) {
  const engine::SweepPlan plan = make_sweep_plan(
      setup.scenario, derive_seed(options.seed, kCheckStream), kCheckRuns);
  engine::SweepOptions fast;
  fast.pool = &pool;
  engine::SweepOptions oracle = fast;
  oracle.replay = forward::ReplayMode::kDense;
  oracle.flood_kernel = forward::FloodKernel::kScalar;
  oracle.contact_scan = forward::ContactScan::kFull;
  const engine::SweepResult a = engine::run_sweep(plan, fast);
  const engine::SweepResult b = engine::run_sweep(plan, oracle);
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    if (cell_digest(a.cells[c]) != cell_digest(b.cells[c]))
      report.mismatch(kCheckRuns, "forward_city: " + a.cells[c].algorithm +
                                      " differs from its oracle re-run");
  }
}

}  // namespace

Report run_forward_city(const Options& options, Tracer& tracer) {
  Report report;
  engine::ThreadPool pool(kThreads);
  const Setup setup = set_up(pool, tracer);

  Tracer untraced(false);
  const WarmPhase base = warm(setup, pool, options, untraced);
  report.attempted = base.runs;
  report.metrics["setup_s"] = setup.total_s;
  report.metrics["ops_per_s"] = base.figures.ops_per_s;
  report.show("runs_per_s", base.figures.ops_per_s, "1/s");
  report.show_latency(base.run_walls);
  report.metrics["peak_rss_mb"] = peak_rss_mib();

  if (options.trace) {
    const WarmPhase traced = warm(setup, pool, options, tracer);
    report_trace_overhead(report, base.figures, traced.figures);
    auto& m = report.metrics;
    m["synth.dataset_s"] = setup.dataset_s;
    m["graph.build_s"] = setup.graph_s;
    m["graph.bytes_per_contact"] = setup.bytes_per_contact;
    for (const auto& [name, seconds] : setup.snapshot_s)
      m["forward.snapshot_s." + metric_token(name)] = seconds;
    m["forward.snapshot_bytes"] = static_cast<double>(setup.snapshot_bytes);
    // Run walls are engine telemetry, untouched by the benchmark's spans:
    // both phases pool their samples so each algorithm can name its p90.
    for (const std::string& name : kAlgorithms) {
      std::vector<double> walls = base.run_walls_by_algorithm.at(name);
      const auto& more = traced.run_walls_by_algorithm.at(name);
      walls.insert(walls.end(), more.begin(), more.end());
      m["forward.run_s." + metric_token(name) + ".p50"] = percentile(walls, 50.0);
      m["forward.run_s." + metric_token(name) + ".p90"] = percentile(walls, 90.0);
    }
    m["forward.transmissions"] =
        static_cast<double>(traced.first_sweep_transmissions);
    m["engine.sweep_s"] = median(traced.sweep_walls);
    m["engine.pool_busy_frac"] =
        sum(traced.run_walls) /
        (sum(traced.sweep_walls) * static_cast<double>(kThreads));
    const engine::ScenarioCacheStats cache =
        engine::ScenarioContextCache::instance().stats();
    m["engine.cache_hits"] = static_cast<double>(cache.hits);
    m["engine.cache_misses"] = static_cast<double>(cache.misses);
    m["engine.cache_evictions"] = static_cast<double>(cache.evictions);
    m["engine.resident_bytes"] = static_cast<double>(cache.resident_bytes);
  }

  check(setup, pool, options, report);
  return report;
}

}  // namespace perfbench
