// paths_paper: the paper's §3 path-explosion study configuration.
//
// Closed batch loop: back-to-back engine::run_path_sweep calls on
// conference_small with 120-message samples and k = 2000 on one 4-thread
// pool, over consecutive sample seeds derived from the workload seed. The
// paths layer does nearly all the work and forward none; per-message cost
// is heavy-tailed, so enumerator speed and tail load balance both show.
// Set-up (dataset + graph) is cheap, so it is repeated and the median
// reported.
//
// Operation: one enumerated message. run_path_sweep reports only summed
// per-message walls, so after the sweeps the first sweep's sample is
// enumerated again through KPathEnumerator::enumerate on the same pool,
// timing each message: a message's latency is that wall.
// That pass doubles as the check — its records must equal the sweep's bit
// for bit — and a few messages are also replayed with the dense oracle.

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arrivals.hpp"
#include "digest.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/paths/enumerator.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace psn;

constexpr const char* kScenario = "conference_small";
constexpr std::size_t kThreads = 4;
constexpr std::size_t kMessages = 120;
constexpr std::size_t kK = 2000;
constexpr std::size_t kSetupRepeats = 15;
constexpr std::size_t kDenseChecks = 4;
constexpr std::uint64_t kSampleStream = 3;
constexpr std::uint64_t kCheckStream = 4;

/// Every field of a record; steps_replayed is skipped when comparing
/// across replay modes (the one effort field that depends on the mode).
std::uint64_t record_digest(const paths::ExplosionRecord& r,
                            bool with_steps_replayed) {
  Digest d;
  d.add(std::uint64_t{r.source}).add(std::uint64_t{r.destination})
      .add(r.t_start).add(std::uint64_t{r.delivered})
      .add(std::uint64_t{r.exploded}).add(r.optimal_duration)
      .add(r.time_to_explosion).add(r.total_paths)
      .add(static_cast<std::uint64_t>(r.growth.size()));
  for (const paths::GrowthPoint& g : r.growth) d.add(g.offset).add(g.cumulative);
  if (with_steps_replayed) d.add(r.effort.steps_replayed);
  d.add(r.effort.contact_events).add(r.effort.peak_stored_paths)
      .add(r.effort.truncated_candidates);
  return d.value();
}

struct Setup {
  engine::Scenario scenario;
  std::shared_ptr<const engine::ScenarioContext> context;
  double dataset_s = 0.0;
  double graph_s = 0.0;
  double total_s = 0.0;
  double bytes_per_contact = 0.0;
};

/// Cold set-up, repeated: each repeat drops every holder and clears the
/// context cache first, so the dataset and graph are really rebuilt.
Setup set_up(Tracer& tracer) {
  std::vector<double> dataset_s;
  std::vector<double> graph_s;
  std::vector<double> total_s;
  Setup out;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    out = Setup{};
    engine::ScenarioContextCache::instance().clear();
    const auto start = std::chrono::steady_clock::now();
    {
      Span span(tracer, "engine.make_scenario_by_name");
      out.scenario = engine::make_scenario_by_name(kScenario);
    }
    dataset_s.push_back(seconds_since(start));
    const auto graph_start = std::chrono::steady_clock::now();
    {
      Span span(tracer, "engine.ScenarioContextCache::acquire");
      out.context = engine::ScenarioContextCache::instance().acquire(out.scenario);
    }
    graph_s.push_back(seconds_since(graph_start));
    total_s.push_back(seconds_since(start));
  }
  out.dataset_s = median(dataset_s);
  out.graph_s = median(graph_s);
  out.total_s = median(total_s);
  out.bytes_per_contact =
      static_cast<double>(engine::ScenarioContextCache::context_bytes(*out.context)) /
      static_cast<double>(out.scenario.dataset->trace.size());
  return out;
}

/// Enumerates `messages` on the pool through KPathEnumerator::enumerate,
/// one task per message, recording each message's wall and record.
void enumerate_all(const graph::SpaceTimeGraph& graph,
                   const std::vector<paths::MessageSpec>& messages,
                   paths::ReplayMode replay, engine::ThreadPool& pool,
                   Tracer& tracer, std::uint64_t parent,
                   std::vector<double>& walls,
                   std::vector<paths::ExplosionRecord>& records) {
  paths::EnumeratorConfig config;
  config.k = kK;
  config.record_paths = false;
  config.replay = replay;
  const paths::KPathEnumerator enumerator(graph, config);
  walls.assign(messages.size(), 0.0);
  records.assign(messages.size(), {});
  std::exception_ptr error;
  std::mutex error_mu;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    pool.submit([&, i] {
      try {
        thread_local paths::EnumeratorWorkspace workspace;
        const paths::MessageSpec& m = messages[i];
        const auto start = std::chrono::steady_clock::now();
        paths::EnumerationResult result;
        {
          Span span(tracer, "paths.KPathEnumerator::enumerate", parent);
          result = enumerator.enumerate(m.source, m.destination, m.t_start,
                                        workspace);
        }
        walls[i] = seconds_since(start);
        records[i] = paths::make_explosion_record(result, kK);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  if (error) std::rethrow_exception(error);
}

struct WarmPhase {
  WarmFigures figures;
  std::size_t messages = 0;
  std::vector<double> sweep_walls;
  double enumeration_wall_seconds = 0.0;
  engine::PathCell first;  ///< the first sweep's cell (deterministic).
  std::vector<double> pass_walls;
  std::vector<paths::ExplosionRecord> pass_records;
};

WarmPhase warm(const Setup& setup, engine::ThreadPool& pool,
               const Options& options, Tracer& tracer) {
  WarmPhase out;
  const std::uint64_t base_seed = derive_seed(options.seed, kSampleStream);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0;; ++i) {
    engine::PathSweepPlan plan;
    plan.scenarios = {setup.scenario};
    plan.config.messages = kMessages;
    plan.config.k = kK;
    plan.config.seed = base_seed + i;
    engine::PathSweepOptions sweep_options;
    sweep_options.pool = &pool;
    sweep_options.keep_results = false;
    engine::PathSweepResult result;
    {
      Span span(tracer, "engine.run_path_sweep");
      result = engine::run_path_sweep(plan, sweep_options);
    }
    out.messages += result.total_messages;
    out.sweep_walls.push_back(result.wall_seconds);
    out.enumeration_wall_seconds += result.cells.front().enumeration_wall_seconds;
    if (i == 0) out.first = std::move(result.cells.front());
    if (seconds_since(start) >= options.seconds) break;
  }
  out.figures.ops_per_s =
      static_cast<double>(out.messages) / seconds_since(start);

  Span pass(tracer, "bench.enumerate_pass");
  enumerate_all(*setup.context->graph, out.first.messages,
                paths::ReplayMode::kSparse, pool, tracer, pass.id(),
                out.pass_walls, out.pass_records);
  out.figures.latency_p50_s = median(out.pass_walls);
  return out;
}

/// The enumerate pass must reproduce the sweep's records exactly, and a
/// few messages replayed densely must agree on everything but the
/// replayed-step count.
void check(const Setup& setup, const WarmPhase& phase, engine::ThreadPool& pool,
           const Options& options, Report& report) {
  const auto& records = phase.first.records;
  for (std::size_t i = 0; i < records.size(); ++i)
    if (record_digest(records[i], true) !=
        record_digest(phase.pass_records[i], true))
      report.mismatch(1, "paths_paper: message " + std::to_string(i) +
                             " differs between run_path_sweep and enumerate");

  InputRng rng(derive_seed(options.seed, kCheckStream));
  std::vector<std::size_t> picks;
  while (picks.size() < kDenseChecks && picks.size() < records.size()) {
    const std::size_t i = rng.index(records.size());
    if (std::find(picks.begin(), picks.end(), i) == picks.end())
      picks.push_back(i);
  }
  std::vector<paths::MessageSpec> sample;
  for (const std::size_t i : picks) sample.push_back(phase.first.messages[i]);
  Tracer off(false);
  std::vector<double> walls;
  std::vector<paths::ExplosionRecord> dense;
  enumerate_all(*setup.context->graph, sample, paths::ReplayMode::kDense, pool,
                off, 0, walls, dense);
  for (std::size_t j = 0; j < picks.size(); ++j)
    if (record_digest(records[picks[j]], false) !=
        record_digest(dense[j], false))
      report.mismatch(1, "paths_paper: message " + std::to_string(picks[j]) +
                             " differs from its dense-replay oracle");
}

}  // namespace

Report run_paths_paper(const Options& options, Tracer& tracer) {
  Report report;
  engine::ThreadPool pool(kThreads);
  const Setup setup = set_up(tracer);

  Tracer untraced(false);
  const WarmPhase base = warm(setup, pool, options, untraced);
  report.attempted = base.messages;
  report.metrics["setup_s"] = setup.total_s;
  report.metrics["ops_per_s"] = base.figures.ops_per_s;
  report.show("messages_per_s", base.figures.ops_per_s, "1/s");
  report.show_latency(base.pass_walls);
  report.metrics["peak_rss_mb"] = peak_rss_mib();

  if (options.trace) {
    const WarmPhase traced = warm(setup, pool, options, tracer);
    report_trace_overhead(report, base.figures, traced.figures);
    auto& m = report.metrics;
    m["synth.dataset_s"] = setup.dataset_s;
    m["graph.build_s"] = setup.graph_s;
    m["graph.bytes_per_contact"] = setup.bytes_per_contact;
    m["engine.path_pool_busy_frac"] =
        traced.enumeration_wall_seconds /
        (sum(traced.sweep_walls) * static_cast<double>(kThreads));
    m["paths.enum_s.p50"] = percentile(traced.pass_walls, 50.0);
    m["paths.enum_s.p90"] = percentile(traced.pass_walls, 90.0);
    double steps = 0, events = 0, stored = 0, truncated = 0, exploded = 0;
    for (const paths::ExplosionRecord& r : traced.first.records) {
      steps += static_cast<double>(r.effort.steps_replayed);
      events += static_cast<double>(r.effort.contact_events);
      stored += static_cast<double>(r.effort.peak_stored_paths);
      truncated += static_cast<double>(r.effort.truncated_candidates);
      exploded += r.exploded ? 1.0 : 0.0;
    }
    m["paths.steps_replayed"] = steps;
    m["paths.contact_events"] = events;
    m["paths.peak_stored_paths"] = stored;
    m["paths.truncated_candidates"] = truncated;
    m["paths.exploded_frac"] =
        exploded / static_cast<double>(traced.first.records.size());
    const engine::ScenarioCacheStats cache =
        engine::ScenarioContextCache::instance().stats();
    m["engine.cache_hits"] = static_cast<double>(cache.hits);
    m["engine.cache_misses"] = static_cast<double>(cache.misses);
    m["engine.cache_evictions"] = static_cast<double>(cache.evictions);
    m["engine.resident_bytes"] = static_cast<double>(cache.resident_bytes);
  }

  check(setup, base, pool, options, report);
  return report;
}

}  // namespace perfbench
