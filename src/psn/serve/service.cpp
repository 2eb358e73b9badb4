#include "psn/serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "psn/engine/model_sweep.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/sweep.hpp"

namespace psn::serve {

namespace {

using engine::Clock;
using engine::seconds_since;

// The config, once it is inside the bounds SweepService states: a thread
// count the host can start and a window the dispatcher's duration_cast
// can represent.
ServiceConfig validated(ServiceConfig config) {
  if (config.threads > SweepService::kMaxThreads)
    throw std::invalid_argument(
        "SweepService: threads must be at most " +
        std::to_string(SweepService::kMaxThreads) +
        " (0 = one per hardware thread)");
  if (!(config.batch_window_seconds >= 0.0 &&
        config.batch_window_seconds <= SweepService::kMaxBatchWindowSeconds))
    throw std::invalid_argument(
        "SweepService: the batch window must be finite and within [0, 60] s");
  return config;
}

Json cell_json(const engine::CellSummary& cell) {
  // Deterministic fields only: walls and thread counts stay out of the
  // result payload so a coalesced response's canonical dump is
  // bit-identical to a standalone one (the serve bench compares them).
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

Json record_json(const paths::ExplosionRecord& record) {
  Json out;
  out["source"] = record.source;
  out["destination"] = record.destination;
  out["t_start"] = record.t_start;
  out["delivered"] = record.delivered;
  out["exploded"] = record.exploded;
  out["total_paths"] = record.total_paths;
  if (record.delivered) out["optimal_duration"] = record.optimal_duration;
  if (record.exploded) out["time_to_explosion"] = record.time_to_explosion;
  return out;
}

Json model_cell_json(const engine::ModelCell& cell) {
  Json out;
  out["scenario"] = cell.scenario;
  out["population"] = cell.population;
  out["jump_replicas"] = cell.jump_replicas;
  out["jump_events"] = cell.jump_events;
  if (!cell.trajectory.empty()) {
    const engine::EnsemblePoint& last = cell.trajectory.back();
    Json final_point;
    final_point["t"] = last.t;
    final_point["mean_paths"] = last.mean_paths;
    final_point["var_mean_paths"] = last.var_mean_paths;
    out["final_point"] = final_point;
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
  out["mc_messages"] = mc_messages;
  out["quadrants"] = Json(std::move(quadrants));
  return out;
}

/// The scenario context for `name`, through the process-wide cache.
/// Fills the group telemetry's build wall and hit/miss outcome — the
/// engine call afterwards finds the context warm, so this is where the
/// entire (dataset + graph) build cost of a cold scenario lands.
[[nodiscard]] std::shared_ptr<const engine::ScenarioContext> acquire_context(
    const std::string& name, GroupTelemetry& telemetry,
    engine::Scenario* scenario_out) {
  auto& cache = engine::ScenarioContextCache::instance();
  const std::uint64_t misses_before = cache.stats().misses;
  const auto build_start = Clock::now();
  engine::Scenario scenario = engine::make_scenario_by_name(name);
  auto context = cache.acquire(scenario);
  telemetry.build_wall_seconds = seconds_since(build_start);
  telemetry.cache_hit = cache.stats().misses == misses_before;
  if (scenario_out != nullptr) *scenario_out = std::move(scenario);
  return context;
}

}  // namespace

SweepService::SweepService(ServiceConfig config)
    : config_(validated(std::move(config))),
      pool_(config_.threads == 0 ? engine::ThreadPool::hardware_threads()
                                 : config_.threads),
      latencies_(kLatencyRing, 0.0) {
  if (config_.cache_budget_bytes > 0)
    engine::ScenarioContextCache::instance().set_budget_bytes(
        config_.cache_budget_bytes);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SweepService::~SweepService() {
  {
    util::LockGuard lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
}

void SweepService::enqueue(Request request, Callback callback) {
  {
    util::LockGuard lock(mu_);
    if (stopping_)
      throw std::runtime_error("SweepService: enqueue after shutdown");
    Pending pending;
    pending.request = std::move(request);
    pending.callback = std::move(callback);
    pending.admitted = Clock::now();
    pending.depth_at_admission = queue_.size();
    queue_.push_back(std::move(pending));
    ++requests_;
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  }
  queue_cv_.notify_all();
}

Json SweepService::execute(Request request) {
  std::promise<Json> promise;
  std::future<Json> future = promise.get_future();
  enqueue(std::move(request),
          [&promise](const Json& response) { promise.set_value(response); });
  return future.get();
}

void SweepService::drain() {
  util::LockGuard lock(mu_);
  while (!queue_.empty() || dispatching_) idle_cv_.wait(lock);
}

bool SweepService::shutdown_requested() const noexcept {
  return shutdown_requested_.load(std::memory_order_acquire);
}

void SweepService::dispatch_loop() {
  for (;;) {
    std::vector<Pending> window;
    {
      util::LockGuard lock(mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(lock);
      if (queue_.empty()) return;  // stopping with nothing left.
      if (config_.batch_window_seconds > 0 && !stopping_) {
        // The admission window: requests arriving before the deadline
        // join this dispatch and may coalesce with what is already
        // queued. Shutdown flushes immediately.
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   config_.batch_window_seconds));
        while (!stopping_ &&
               queue_cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
        }
      }
      window.assign(std::make_move_iterator(queue_.begin()),
                    std::make_move_iterator(queue_.end()));
      queue_.clear();
      dispatching_ = true;
    }

    // Group the window by coalescing key, preserving arrival order both
    // across groups and within one.
    std::vector<std::pair<std::string, std::vector<Pending>>> groups;
    for (Pending& pending : window) {
      const std::string key = pending.request.batch_key();
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&key](const auto& g) { return g.first == key; });
      if (it == groups.end()) {
        groups.emplace_back(key, std::vector<Pending>{});
        it = std::prev(groups.end());
      }
      it->second.push_back(std::move(pending));
    }

    // Groups run sequentially on this thread; the shared pool underneath
    // provides the parallelism.
    for (auto& [key, group] : groups) {
      (void)key;
      {
        util::LockGuard lock(mu_);
        ++batches_;
      }
      execute_group(group);
    }

    {
      util::LockGuard lock(mu_);
      dispatching_ = false;
      if (queue_.empty()) idle_cv_.notify_all();
    }
  }
}

void SweepService::execute_group(std::vector<Pending>& group) {
  try {
    switch (group.front().request.family) {
      case Family::kForwarding: execute_forwarding_group(group); return;
      case Family::kPath: execute_path_group(group); return;
      case Family::kModel: execute_model_group(group); return;
      case Family::kAdmin:
        for (Pending& pending : group) execute_admin(pending);
        return;
    }
  } catch (const std::exception& e) {
    for (Pending& pending : group)
      if (pending.callback) respond_error(pending, e.what());
  }
}

void SweepService::execute_forwarding_group(std::vector<Pending>& group) {
  GroupTelemetry telemetry;
  telemetry.batch_size = group.size();

  // Merge the group's algorithm axes, first-occurrence order. The merged
  // plan's per-algorithm cells are bit-identical to each request's
  // standalone cells because per-run seeds never see the algorithm index
  // (request.hpp).
  std::vector<std::string> algorithms;
  for (const Pending& pending : group)
    for (const std::string& name : pending.request.forwarding.algorithms)
      if (std::find(algorithms.begin(), algorithms.end(), name) ==
          algorithms.end())
        algorithms.push_back(name);

  const ForwardingRequest& spec = group.front().request.forwarding;
  engine::Scenario scenario;
  const auto context = acquire_context(spec.scenario, telemetry, &scenario);

  engine::SweepPlan plan = engine::make_plan({std::move(scenario)},
                                             algorithms, spec.plan_config());
  engine::SweepOptions options;
  options.pool = &pool_;
  options.keep_delays = false;
  const auto run_start = Clock::now();
  const engine::SweepResult result = engine::run_sweep(plan, options);
  telemetry.run_wall_seconds = seconds_since(run_start);
  telemetry.snapshot_wall_seconds = result.snapshot_wall_seconds;

  for (Pending& pending : group) {
    Json::Array cells;
    for (const std::string& name : pending.request.forwarding.algorithms) {
      const auto it = std::find(algorithms.begin(), algorithms.end(), name);
      const auto index =
          static_cast<std::size_t>(std::distance(algorithms.begin(), it));
      cells.push_back(cell_json(result.cell(0, index)));
    }
    Json payload;
    payload["scenario"] = spec.scenario;
    payload["runs"] = pending.request.forwarding.runs;
    payload["cells"] = Json(std::move(cells));
    respond(pending, std::move(payload), true, telemetry);
  }
}

void SweepService::execute_path_group(std::vector<Pending>& group) {
  GroupTelemetry telemetry;
  telemetry.batch_size = group.size();

  // Same key -> identical payload: one execution, fanned out. The group
  // holds its context, so the sweep finds it even when the cache cannot
  // retain it.
  const PathRequest& spec = group.front().request.path;
  engine::Scenario scenario;
  const auto context = acquire_context(spec.scenario, telemetry, &scenario);

  engine::PathSweepPlan plan;
  plan.scenarios.push_back(std::move(scenario));
  plan.config.messages = spec.messages;
  plan.config.k = spec.k;
  plan.config.seed = spec.seed;
  engine::PathSweepOptions options;
  options.pool = &pool_;
  options.keep_results = false;
  const auto run_start = Clock::now();
  const engine::PathSweepResult result = engine::run_path_sweep(plan, options);
  telemetry.run_wall_seconds = seconds_since(run_start);

  const engine::PathCell& cell = result.cells.front();
  Json::Array records;
  std::size_t delivered = 0;
  std::size_t exploded = 0;
  for (const paths::ExplosionRecord& record : cell.records) {
    records.push_back(record_json(record));
    delivered += record.delivered ? 1 : 0;
    exploded += record.exploded ? 1 : 0;
  }
  Json payload;
  payload["scenario"] = spec.scenario;
  payload["k"] = spec.k;
  payload["messages"] = cell.records.size();
  payload["delivered"] = delivered;
  payload["exploded"] = exploded;
  payload["records"] = Json(std::move(records));

  for (Pending& pending : group) respond(pending, payload, true, telemetry);
}

void SweepService::execute_model_group(std::vector<Pending>& group) {
  GroupTelemetry telemetry;
  telemetry.batch_size = group.size();

  // Model tiers are synthetic populations — no trace dataset, no context
  // cache involvement; build wall stays 0 and cache_hit false.
  const ModelRequest& spec = group.front().request.model;
  engine::ModelSweepPlan plan;
  engine::ModelScenario scenario = engine::make_model_scenario(spec.scenario);
  if (spec.mc_messages > 0) scenario.mc.messages = spec.mc_messages;
  plan.scenarios.push_back(std::move(scenario));
  plan.config.jump_replicas = spec.jump_replicas;
  plan.config.master_seed = spec.master_seed;
  engine::ModelSweepOptions options;
  options.pool = &pool_;
  options.keep_messages = false;
  const auto run_start = Clock::now();
  const engine::ModelSweepResult result =
      engine::run_model_sweep(plan, options);
  telemetry.run_wall_seconds = seconds_since(run_start);

  const Json payload = model_cell_json(result.cells.front());
  for (Pending& pending : group) respond(pending, payload, true, telemetry);
}

void SweepService::execute_admin(Pending& pending) {
  GroupTelemetry telemetry;
  auto& cache = engine::ScenarioContextCache::instance();
  Json payload;
  switch (pending.request.admin.command) {
    case AdminCommand::kStats:
      payload = stats_json();
      break;
    case AdminCommand::kEvict:
      payload["evicted"] = cache.evict(pending.request.admin.scenario);
      break;
    case AdminCommand::kClear:
      cache.clear();
      payload["cleared"] = true;
      break;
    case AdminCommand::kShutdown:
      shutdown_requested_.store(true, std::memory_order_release);
      payload["shutting_down"] = true;
      break;
  }
  respond(pending, std::move(payload), true, telemetry);
}

void SweepService::respond(Pending& pending, Json payload, bool ok,
                           const GroupTelemetry& telemetry) {
  const double latency = seconds_since(pending.admitted);

  Json response;
  response["id"] = pending.request.id;
  response["ok"] = ok;
  response["family"] = family_name(pending.request.family);
  if (ok) {
    response["result"] = std::move(payload);
  } else {
    response["error"] = std::move(payload);
  }
  Json stamped;
  stamped["cache_hit"] = telemetry.cache_hit;
  stamped["queue_depth_at_admission"] = pending.depth_at_admission;
  stamped["batch_size"] = telemetry.batch_size;
  stamped["coalesced"] = telemetry.batch_size > 1;
  stamped["build_wall_seconds"] = telemetry.build_wall_seconds;
  stamped["run_wall_seconds"] = telemetry.run_wall_seconds;
  stamped["snapshot_wall_seconds"] = telemetry.snapshot_wall_seconds;
  stamped["latency_seconds"] = latency;
  response["telemetry"] = std::move(stamped);

  bool stats_due = false;
  {
    util::LockGuard lock(mu_);
    if (ok) ++responses_ok_; else ++responses_error_;
    if (telemetry.batch_size > 1) ++coalesced_requests_;
    if (pending.request.family == Family::kForwarding ||
        pending.request.family == Family::kPath) {
      if (telemetry.cache_hit) ++cache_hits_; else ++cache_misses_;
    }
    latencies_[latency_next_] = latency;
    latency_next_ = (latency_next_ + 1) % kLatencyRing;
    latency_count_ = std::min(latency_count_ + 1, kLatencyRing);
    const std::uint64_t responses = responses_ok_ + responses_error_;
    stats_due =
        config_.stats_every != 0 && responses % config_.stats_every == 0;
  }

  // Callback outside mu_: it may re-enter enqueue().
  pending.callback(response);

  if (stats_due) {
    std::ostream* stream =
        config_.stats_stream != nullptr ? config_.stats_stream : &std::cerr;
    Json line = stats_json();
    line["type"] = "stats";
    *stream << line.dump() << '\n' << std::flush;
  }
}

void SweepService::respond_error(Pending& pending, const std::string& error) {
  respond(pending, Json(error), false, GroupTelemetry{});
}

ServiceStats SweepService::stats() const {
  ServiceStats out;
  std::vector<double> window;
  {
    util::LockGuard lock(mu_);
    out.requests = requests_;
    out.responses_ok = responses_ok_;
    out.responses_error = responses_error_;
    out.batches = batches_;
    out.coalesced_requests = coalesced_requests_;
    out.cache_hits = cache_hits_;
    out.cache_misses = cache_misses_;
    out.max_queue_depth = max_queue_depth_;
    window.assign(latencies_.begin(),
                  latencies_.begin() +
                      static_cast<std::ptrdiff_t>(latency_count_));
  }
  if (!window.empty()) {
    const auto quantile = [&window](double q) {
      const auto index = static_cast<std::ptrdiff_t>(
          q * static_cast<double>(window.size() - 1) + 0.5);
      std::nth_element(window.begin(), window.begin() + index, window.end());
      return window[static_cast<std::size_t>(index)];
    };
    out.p50_latency_seconds = quantile(0.50);
    out.p99_latency_seconds = quantile(0.99);
  }
  return out;
}

Json SweepService::stats_json() const {
  const ServiceStats s = stats();
  Json out;
  out["requests"] = s.requests;
  out["responses_ok"] = s.responses_ok;
  out["responses_error"] = s.responses_error;
  out["batches"] = s.batches;
  out["coalesced_requests"] = s.coalesced_requests;
  out["cache_hits"] = s.cache_hits;
  out["cache_misses"] = s.cache_misses;
  out["max_queue_depth"] = s.max_queue_depth;
  out["p50_latency_seconds"] = s.p50_latency_seconds;
  out["p99_latency_seconds"] = s.p99_latency_seconds;
  const engine::ScenarioCacheStats c =
      engine::ScenarioContextCache::instance().stats();
  Json cache;
  cache["hits"] = c.hits;
  cache["misses"] = c.misses;
  cache["evictions"] = c.evictions;
  cache["resident_bytes"] = c.resident_bytes;
  cache["budget_bytes"] = c.budget_bytes;
  cache["resident_contexts"] = c.resident_contexts;
  out["cache"] = std::move(cache);
  return out;
}

}  // namespace psn::serve
