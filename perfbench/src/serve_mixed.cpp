// serve_mixed: the resident service under an open-loop request mix.
//
// An in-process serve::SweepService (3 pool threads, default batch window)
// is fed by one open-loop generator — the calling thread — that sends
// round(rate * seconds) requests at seeded Poisson arrival times: the
// arrival times of a Poisson process conditioned on that many arrivals in
// the window, i.e. sorted uniform offsets. Each request is a JSON line,
// parsed with serve::parse_request at its send time, then enqueued; its
// latency runs from the *scheduled* send time to the callback, so a stalled
// generator or service charges the wait to every request behind it.
//
// The mix (request kinds and the small parameter pools that make requests
// coalesce and recur) is drawn from the workload seed: forwarding on
// town_128 and campus_512, contended forwarding (finite buffers) on
// town_128, k = 256 path samples on conference_small and campus_512, model
// runs on model_1k, and an admin "evict town_128" every kEvictEvery-th
// request. After an evict the next town_128 request rebuilds the context
// (counted in its build wall) and the PRoPHET/FRESH snapshots — which the
// service counts in run_wall_seconds, so the evict cadence shows in
// serve.run_s.forwarding, not serve.build_s.
//
// Set-up is the prewarm of every scenario in the mix (dataset, graph and
// the snapshots the mix's algorithms adopt), repeated with the context
// cache cleared in between; the median is reported. The check recomputes
// every distinct request once as a one-shot engine call and compares the
// canonical JSON dump of the payload byte for byte.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arrivals.hpp"
#include "psn/engine/model_sweep.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/serve/json.hpp"
#include "psn/serve/request.hpp"
#include "psn/serve/service.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace psn;
using serve::Json;

constexpr std::size_t kServiceThreads = 3;
constexpr double kRequestsPerSecond = 14.0;
constexpr std::size_t kEvictEvery = 100;
constexpr std::size_t kSetupRepeats = 7;
constexpr double kDrainTimeoutSeconds = 60.0;
constexpr std::uint64_t kArrivalStream = 5;
constexpr std::uint64_t kMixStream = 6;

using Algorithms = std::vector<std::string>;

struct Kind {
  double weight;
  const char* family;
  const char* scenario;
  std::vector<Algorithms> algorithm_pool;  ///< forwarding only.
  std::vector<std::uint64_t> seeds;
  std::uint64_t buffer_capacity_bytes;  ///< 0: unlimited (field absent).
  std::size_t messages;                 ///< path only.
};

const std::vector<Kind>& mix() {
  static const std::vector<Kind> kinds = {
      {0.60, "forwarding", "town_128", {{"Epidemic", "FRESH"}}, {1, 2, 3}, 0, 0},
      {0.04, "forwarding", "town_128",
       {{"PRoPHET"}, {"Spray+Wait", "PRoPHET"}}, {1, 2}, 0, 0},
      {0.06, "forwarding", "campus_512", {{"Epidemic"}, {"FRESH"}}, {1, 2}, 0, 0},
      {0.06, "forwarding", "town_128",
       {{"Epidemic"}, {"Spray+Wait"}}, {1, 2}, 16, 0},
      {0.08, "path", "conference_small", {}, {1, 2, 3, 4}, 0, 2},
      {0.02, "path", "campus_512", {}, {1, 2, 3}, 0, 1},
      {0.14, "model", "model_1k", {}, {1, 2, 3}, 0, 0},
  };
  return kinds;
}

/// The request lines of one run, without ids (the id is added at send
/// time so equal requests share one text key). What a run offers is fixed
/// by the request count alone: every kEvictEvery-th request is the admin
/// evict, the rest split across the kinds in proportion to their weights
/// (largest remainder), and each kind cycles through its algorithm subsets
/// and seeds. The workload seed shuffles the order of that multiset (and,
/// in make_schedule, the arrival times), so seeds differ in how requests
/// queue, coalesce and recur, not in how much work they carry.
std::vector<Json> make_requests(std::uint64_t seed, std::size_t count) {
  const std::size_t evicts = count / kEvictEvery;
  const std::size_t sweeps = count - evicts;
  double total_weight = 0.0;
  for (const Kind& kind : mix()) total_weight += kind.weight;
  std::vector<std::size_t> quota;
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < mix().size(); ++k) {
    const double exact =
        mix()[k].weight / total_weight * static_cast<double>(sweeps);
    quota.push_back(static_cast<std::size_t>(exact));
    assigned += quota.back();
    remainders.emplace_back(exact - static_cast<double>(quota.back()), k);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t r = 0; assigned < sweeps; ++r, ++assigned)
    ++quota[remainders[r % remainders.size()].second];

  std::vector<Json> sweep_requests;
  for (std::size_t k = 0; k < mix().size(); ++k) {
    const Kind& kind = mix()[k];
    const std::string family = kind.family;
    for (std::size_t j = 0; j < quota[k]; ++j) {
      Json request;
      request["family"] = kind.family;
      request["scenario"] = kind.scenario;
      if (family == "forwarding") {
        const std::size_t subsets = kind.algorithm_pool.size();
        Json::Array algorithms;
        for (const std::string& name : kind.algorithm_pool[j % subsets])
          algorithms.emplace_back(name);
        request["algorithms"] = Json(std::move(algorithms));
        request["runs"] = 1;
        request["master_seed"] = kind.seeds[(j / subsets) % kind.seeds.size()];
        request["message_rate"] = 0.01;
        if (kind.buffer_capacity_bytes != 0)
          request["buffer_capacity_bytes"] = kind.buffer_capacity_bytes;
      } else if (family == "path") {
        request["k"] = 256;
        request["messages"] = kind.messages;
        request["seed"] = kind.seeds[j % kind.seeds.size()];
      } else {
        request["jump_replicas"] = 1;
        request["mc_messages"] = 8;
        request["master_seed"] = kind.seeds[j % kind.seeds.size()];
      }
      sweep_requests.push_back(std::move(request));
    }
  }
  InputRng rng(derive_seed(seed, kMixStream));
  for (std::size_t i = sweep_requests.size(); i > 1; --i)  // Fisher-Yates.
    std::swap(sweep_requests[i - 1], sweep_requests[rng.index(i)]);

  std::vector<Json> out;
  std::size_t next = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if ((i + 1) % kEvictEvery == 0) {
      Json request;
      request["family"] = "admin";
      request["command"] = "evict";
      request["scenario"] = "town_128";
      out.push_back(std::move(request));
    } else {
      out.push_back(std::move(sweep_requests[next++]));
    }
  }
  return out;
}

struct Setup {
  double dataset_s = 0.0;  ///< summed over the mix's trace scenarios.
  double graph_s = 0.0;
  double total_s = 0.0;
};

/// Prewarms every scenario of the mix from a cleared cache, returning the
/// per-layer walls of this one repeat.
Setup prewarm(Tracer& tracer) {
  Setup out;
  auto& cache = engine::ScenarioContextCache::instance();
  cache.clear();
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::pair<const char*, Algorithms>> scenarios = {
      {"town_128", {"FRESH", "PRoPHET"}},
      {"campus_512", {"FRESH"}},
      {"conference_small", {}},
  };
  for (const auto& [name, algorithms] : scenarios) {
    auto t = std::chrono::steady_clock::now();
    engine::Scenario scenario;
    {
      Span span(tracer, "engine.make_scenario_by_name");
      scenario = engine::make_scenario_by_name(name);
    }
    out.dataset_s += seconds_since(t);
    t = std::chrono::steady_clock::now();
    std::shared_ptr<const engine::ScenarioContext> context;
    {
      Span span(tracer, "engine.ScenarioContextCache::acquire");
      context = cache.acquire(scenario);
    }
    out.graph_s += seconds_since(t);
    for (const std::string& algorithm_name : algorithms) {
      const auto algorithm = forward::make_algorithm(algorithm_name);
      Span span(tracer, "engine.ObservationStore::get_or_build");
      const auto [snapshot, built] = context->observations->get_or_build(
          algorithm->shared_snapshot_key(), [&] {
            return algorithm->build_shared_snapshot(*context->graph,
                                                    context->dataset->trace);
          });
      if (built) cache.reaccount(*context);
    }
  }
  (void)engine::make_model_scenario("model_1k");
  out.total_s = seconds_since(start);
  return out;
}

struct Outcome {
  std::string key;  ///< canonical dump of the request without its id.
  Json response;
  bool answered = false;
  double latency_s = 0.0;  ///< from the scheduled send time.
  double late_s = 0.0;     ///< actual minus scheduled send time.
  double parse_s = 0.0;
};

struct Phase {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;  ///< first scheduled send to last answer.
  serve::ServiceStats stats;
  engine::ScenarioCacheStats cache_before;
  engine::ScenarioCacheStats cache_after;
};

Phase run_phase(const std::vector<Json>& requests,
                const std::vector<double>& schedule, Tracer& tracer) {
  Phase phase;
  const std::size_t n = requests.size();
  phase.outcomes.resize(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t answered = 0;
  std::chrono::steady_clock::time_point last_answer;

  phase.cache_before = engine::ScenarioContextCache::instance().stats();
  {
    serve::ServiceConfig config;
    config.threads = kServiceThreads;
    serve::SweepService service(config);
    const auto t0 = std::chrono::steady_clock::now();
    const auto at = [t0](double offset) {
      return t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(offset));
    };
    for (std::size_t i = 0; i < n; ++i) {
      Outcome& outcome = phase.outcomes[i];
      outcome.key = requests[i].dump();
      Json with_id = requests[i];
      std::string id = "r";
      id += std::to_string(i);
      with_id["id"] = id;
      const std::string line = with_id.dump();
      const auto scheduled = at(schedule[i]);
      std::this_thread::sleep_until(scheduled);
      const auto sent = std::chrono::steady_clock::now();
      outcome.late_s = std::chrono::duration<double>(sent - scheduled).count();
      serve::Request request;
      {
        Span span(tracer, "serve.parse_request", 0, i + 1);
        request = serve::parse_request(Json::parse(line));
      }
      outcome.parse_s = seconds_since(sent);
      const std::uint64_t span = tracer.begin("serve.SweepService::enqueue->callback", 0, i + 1);
      service.enqueue(std::move(request), [&, i, scheduled, span](const Json& response) {
        const auto now = std::chrono::steady_clock::now();
        tracer.end(span);
        std::lock_guard<std::mutex> lock(mu);
        Outcome& o = phase.outcomes[i];
        o.response = response;
        o.answered = true;
        o.latency_s = std::chrono::duration<double>(now - scheduled).count();
        last_answer = std::max(last_answer, now);
        ++answered;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock,
                     std::chrono::duration<double>(kDrainTimeoutSeconds),
                     [&] { return answered == n; }))
      throw std::runtime_error("serve_mixed: service did not answer every "
                               "request in time");
    phase.wall_s = std::chrono::duration<double>(last_answer - t0).count();
    lock.unlock();
    service.drain();
    phase.stats = service.stats();
  }
  phase.cache_after = engine::ScenarioContextCache::instance().stats();
  return phase;
}

// --- The check: one-shot engine calls, payloads rebuilt independently ---

Json cell_json(const engine::CellSummary& cell) {
  Json out;
  out["algorithm"] = cell.algorithm;
  out["success_rate"] = cell.overall.success_rate;
  out["average_delay"] = cell.overall.average_delay;
  out["average_hops"] = cell.overall.average_hops;
  out["messages"] = cell.overall.messages;
  out["delivered"] = cell.overall.delivered;
  out["cost_per_message"] = cell.cost_per_message;
  out["truncated_relay_steps"] = cell.truncated_relay_steps;
  out["expirations"] = cell.expirations;
  out["evictions"] = cell.evictions;
  out["drops"] = cell.drops;
  out["budget_blocked"] = cell.budget_blocked;
  out["buffer_rejections"] = cell.buffer_rejections;
  out["messages_offered"] = cell.messages_offered;
  return out;
}

Json expected_payload(const serve::Request& request, engine::ThreadPool& pool) {
  Json payload;
  switch (request.family) {
    case serve::Family::kForwarding: {
      const serve::ForwardingRequest& spec = request.forwarding;
      engine::SweepPlan plan =
          engine::make_plan({engine::make_scenario_by_name(spec.scenario)},
                            spec.algorithms, spec.plan_config());
      engine::SweepOptions options;
      options.pool = &pool;
      options.keep_delays = false;
      const engine::SweepResult result = engine::run_sweep(plan, options);
      Json::Array cells;
      for (const engine::CellSummary& cell : result.cells)
        cells.push_back(cell_json(cell));
      payload["scenario"] = spec.scenario;
      payload["runs"] = spec.runs;
      payload["cells"] = Json(std::move(cells));
      return payload;
    }
    case serve::Family::kPath: {
      const serve::PathRequest& spec = request.path;
      engine::PathSweepPlan plan;
      plan.scenarios.push_back(engine::make_scenario_by_name(spec.scenario));
      plan.config.messages = spec.messages;
      plan.config.k = spec.k;
      plan.config.seed = spec.seed;
      engine::PathSweepOptions options;
      options.pool = &pool;
      options.keep_results = false;
      const engine::PathSweepResult result = engine::run_path_sweep(plan, options);
      Json::Array records;
      std::size_t delivered = 0;
      std::size_t exploded = 0;
      for (const paths::ExplosionRecord& r : result.cells.front().records) {
        Json record;
        record["source"] = r.source;
        record["destination"] = r.destination;
        record["t_start"] = r.t_start;
        record["delivered"] = r.delivered;
        record["exploded"] = r.exploded;
        record["total_paths"] = r.total_paths;
        if (r.delivered) record["optimal_duration"] = r.optimal_duration;
        if (r.exploded) record["time_to_explosion"] = r.time_to_explosion;
        records.push_back(std::move(record));
        delivered += r.delivered ? 1 : 0;
        exploded += r.exploded ? 1 : 0;
      }
      payload["scenario"] = spec.scenario;
      payload["k"] = spec.k;
      payload["messages"] = result.cells.front().records.size();
      payload["delivered"] = delivered;
      payload["exploded"] = exploded;
      payload["records"] = Json(std::move(records));
      return payload;
    }
    case serve::Family::kModel: {
      const serve::ModelRequest& spec = request.model;
      engine::ModelSweepPlan plan;
      engine::ModelScenario scenario = engine::make_model_scenario(spec.scenario);
      if (spec.mc_messages > 0) scenario.mc.messages = spec.mc_messages;
      plan.scenarios.push_back(std::move(scenario));
      plan.config.jump_replicas = spec.jump_replicas;
      plan.config.master_seed = spec.master_seed;
      engine::ModelSweepOptions options;
      options.pool = &pool;
      options.keep_messages = false;
      const engine::ModelCell cell =
          engine::run_model_sweep(plan, options).cells.front();
      payload["scenario"] = cell.scenario;
      payload["population"] = cell.population;
      payload["jump_replicas"] = cell.jump_replicas;
      payload["jump_events"] = cell.jump_events;
      if (!cell.trajectory.empty()) {
        Json final_point;
        final_point["t"] = cell.trajectory.back().t;
        final_point["mean_paths"] = cell.trajectory.back().mean_paths;
        final_point["var_mean_paths"] = cell.trajectory.back().var_mean_paths;
        payload["final_point"] = final_point;
      }
      Json::Array quadrants;
      std::size_t mc_messages = 0;
      for (std::size_t q = 0; q < 4; ++q) {
        Json quadrant;
        quadrant["messages"] = cell.quadrants.messages[q];
        quadrant["delivered"] = cell.quadrants.delivered[q];
        quadrant["exploded"] = cell.quadrants.exploded[q];
        quadrants.push_back(std::move(quadrant));
        mc_messages += cell.quadrants.messages[q];
      }
      payload["mc_messages"] = mc_messages;
      payload["quadrants"] = Json(std::move(quadrants));
      return payload;
    }
    case serve::Family::kAdmin:
      break;
  }
  return payload;
}

/// Every response must be ok; every sweep response must carry exactly the
/// payload a one-shot engine call computes for its request.
void check(const std::vector<const Phase*>& phases, Report& report) {
  engine::ThreadPool pool(kServiceThreads);
  std::map<std::string, std::string> expected;  // request key -> dump.
  for (const Phase* phase : phases) {
    for (const Outcome& o : phase->outcomes) {
      const std::string id = o.response.at("id").is_string()
                                 ? o.response.at("id").as_string()
                                 : std::string("?");
      if (!o.answered || !o.response.at("ok").is_bool() ||
          !o.response.at("ok").as_bool()) {
        report.mismatch(1, "serve_mixed: request " + id + " failed");
        continue;
      }
      Json request_json = Json::parse(o.key);
      request_json["id"] = "check";
      const serve::Request request = serve::parse_request(request_json);
      if (request.family == serve::Family::kAdmin) continue;
      auto it = expected.find(o.key);
      if (it == expected.end())
        it = expected.emplace(o.key, expected_payload(request, pool).dump()).first;
      if (o.response.at("result").dump() != it->second)
        report.mismatch(1, "serve_mixed: request " + id +
                               " differs from its one-shot recomputation");
    }
  }
}

std::vector<double> telemetry_of(const Phase& phase, const char* family,
                                 const char* field) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    if (!o.answered) continue;
    const std::string f = o.response.at("family").as_string();
    if (family != nullptr && f != family) continue;
    out.push_back(o.response.at("telemetry").at(field).as_number());
  }
  return out;
}

WarmFigures figures_of(const Phase& phase) {
  std::vector<double> latencies;
  for (const Outcome& o : phase.outcomes)
    if (o.answered) latencies.push_back(o.latency_s);
  WarmFigures out;
  out.ops_per_s = static_cast<double>(latencies.size()) / phase.wall_s;
  out.latency_p50_s = median(latencies);
  return out;
}

}  // namespace

Report run_serve_mixed(const Options& options, Tracer& tracer) {
  Report report;
  std::vector<double> setup_s, dataset_s, graph_s;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const Setup s = prewarm(tracer);
    setup_s.push_back(s.total_s);
    dataset_s.push_back(s.dataset_s);
    graph_s.push_back(s.graph_s);
  }

  const auto count = static_cast<std::size_t>(
      std::llround(kRequestsPerSecond * options.seconds));
  const std::vector<Json> requests = make_requests(options.seed, count);
  const std::vector<double> schedule =
      poisson_schedule(derive_seed(options.seed, kArrivalStream), count,
                       options.seconds);

  Tracer untraced(false);
  const Phase base = run_phase(requests, schedule, untraced);
  const WarmFigures base_figures = figures_of(base);
  std::vector<double> latencies, late;
  for (const Outcome& o : base.outcomes) {
    latencies.push_back(o.latency_s);
    late.push_back(o.late_s);
  }
  report.attempted = count;
  report.metrics["setup_s"] = median(setup_s);
  report.metrics["ops_per_s"] = base_figures.ops_per_s;
  report.show("throughput_rps", base_figures.ops_per_s, "1/s");
  report.show_latency(latencies);
  report.metrics["peak_rss_mb"] = peak_rss_mib();
  // "Fell behind" is judged on the generator's p90 lateness, so a single
  // scheduler hiccup does not void a run but a lagging generator does.
  const double late_p90 = percentile(late, 90.0);
  if (late_p90 > base_figures.latency_p50_s)
    report.invalidate("serve_mixed: the generator's p90 lateness " +
                      std::to_string(late_p90) +
                      " s exceeds the median latency");

  std::vector<const Phase*> phases = {&base};
  Phase traced;
  if (options.trace) {
    Tracer off(false);
    (void)prewarm(off);  // same starting cache state as the untraced phase.
    traced = run_phase(requests, schedule, tracer);
    phases.push_back(&traced);
    report_trace_overhead(report, base_figures, figures_of(traced));
    auto& m = report.metrics;
    m["synth.dataset_s"] = median(dataset_s);
    m["graph.build_s"] = median(graph_s);
    std::vector<double> parse, traced_late, queue_wait;
    for (const Outcome& o : traced.outcomes) {
      parse.push_back(o.parse_s);
      traced_late.push_back(o.late_s);
      if (!o.answered) continue;
      const Json& t = o.response.at("telemetry");
      queue_wait.push_back(t.at("latency_seconds").as_number() -
                           t.at("build_wall_seconds").as_number() -
                           t.at("run_wall_seconds").as_number());
    }
    std::vector<double> traced_latencies;
    for (const Outcome& o : traced.outcomes) traced_latencies.push_back(o.latency_s);
    m["serve.latency_p50_s"] = percentile(traced_latencies, 50.0);
    m["serve.latency_p90_s"] = percentile(traced_latencies, 90.0);
    m["serve.parse_s"] = median(parse);
    m["serve.queue_wait_s.p50"] = percentile(queue_wait, 50.0);
    m["serve.queue_wait_s.p90"] = percentile(queue_wait, 90.0);
    m["serve.run_s.forwarding"] =
        median(telemetry_of(traced, "forwarding", "run_wall_seconds"));
    m["serve.run_s.path"] = median(telemetry_of(traced, "path", "run_wall_seconds"));
    m["serve.run_s.model"] =
        median(telemetry_of(traced, "model", "run_wall_seconds"));
    std::vector<double> build = telemetry_of(traced, "forwarding", "build_wall_seconds");
    const std::vector<double> path_build =
        telemetry_of(traced, "path", "build_wall_seconds");
    build.insert(build.end(), path_build.begin(), path_build.end());
    m["serve.build_s"] = median(build);
    const serve::ServiceStats& s = traced.stats;
    const auto requests_total = static_cast<double>(s.requests);
    m["serve.batch_size_mean"] = requests_total / static_cast<double>(s.batches);
    m["serve.coalesced_frac"] =
        static_cast<double>(s.coalesced_requests) / requests_total;
    m["serve.cache_hit_frac"] =
        static_cast<double>(s.cache_hits) /
        static_cast<double>(std::max<std::uint64_t>(1, s.cache_hits + s.cache_misses));
    m["serve.max_queue_depth"] = static_cast<double>(s.max_queue_depth);
    // Each group's responses share its walls; dividing by the batch size
    // counts every dispatched group once.
    double busy = 0.0;
    for (const Outcome& o : traced.outcomes) {
      const Json& t = o.response.at("telemetry");
      busy += (t.at("build_wall_seconds").as_number() +
               t.at("run_wall_seconds").as_number()) /
              t.at("batch_size").as_number();
    }
    m["serve.dispatcher_busy_frac"] = busy / traced.wall_s;
    m["serve.late_s.p90"] = percentile(traced_late, 90.0);
    m["serve.late_s.max"] = *std::max_element(traced_late.begin(), traced_late.end());
    std::vector<double> jump_rate, mc_rate;
    for (const Outcome& o : traced.outcomes) {
      if (!o.answered || o.response.at("family").as_string() != "model") continue;
      const double run = o.response.at("telemetry").at("run_wall_seconds").as_number();
      const Json& result = o.response.at("result");
      jump_rate.push_back(result.at("jump_events").as_number() / run);
      mc_rate.push_back(result.at("mc_messages").as_number() / run);
    }
    m["model.jump_events_per_s"] = median(jump_rate);
    m["model.mc_messages_per_s"] = median(mc_rate);
    m["engine.cache_hits"] =
        static_cast<double>(traced.cache_after.hits - traced.cache_before.hits);
    m["engine.cache_misses"] =
        static_cast<double>(traced.cache_after.misses - traced.cache_before.misses);
    m["engine.cache_evictions"] = static_cast<double>(
        traced.cache_after.evictions - traced.cache_before.evictions);
    m["engine.resident_bytes"] =
        static_cast<double>(traced.cache_after.resident_bytes);
  }

  check(phases, report);
  return report;
}

}  // namespace perfbench
