// SweepService: the resident execution core of psn_serve.
//
// Requests enter an admission queue; a dispatcher thread collects
// everything that arrives within one batching window (a few
// milliseconds), groups the window's requests by Request::batch_key, and
// executes each group as ONE engine call on one shared ThreadPool (via
// the sweep options' `pool` hook, so the worker set and its thread_local
// workspaces stay warm across requests). Coalescing is lossless:
// forwarding groups merge their algorithm axes into a single
// single-scenario plan whose per-algorithm cells are bit-identical to
// serving each request alone (request.hpp explains why; serve_test pins
// it), and path/model groups are fully identical requests answered by one
// execution. Groups run sequentially on the dispatcher thread — the pool
// underneath provides the parallelism.
//
// Scenario contexts come from the process-wide ScenarioContextCache,
// whose byte-budgeted retention is what turns the second request for a
// scenario into a pure compute call: the service pre-acquires the
// context before the engine call, so per-group build wall and cache
// hit/miss are measured exactly, and the engine then finds every context
// warm.
//
// Every response carries a telemetry object (cache_hit, queue depth at
// admission, batch size, build vs run wall, the observation-snapshot share
// of the run wall, end-to-end latency), and the service keeps a bounded
// latency ring (fixed 1024 samples) from which stats() derives p50/p99 —
// bounded memory no matter how long the process lives. A periodic stats
// line (one JSON object, stats_every responses) goes to the configured
// stream.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <thread>
#include <vector>

#include "psn/engine/clock.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/serve/json.hpp"
#include "psn/serve/request.hpp"
#include "psn/util/thread_annotations.hpp"

namespace psn::serve {

struct ServiceConfig {
  /// Workers of the shared engine pool; 0 means one per hardware thread.
  /// At most SweepService::kMaxThreads.
  std::size_t threads = 0;
  /// Admission window: how long the dispatcher waits after the first
  /// request of a batch for more requests to coalesce with it. 0 disables
  /// batching (every dispatch takes whatever is queued right now). Finite,
  /// within [0, SweepService::kMaxBatchWindowSeconds].
  double batch_window_seconds = 0.002;
  /// Scenario-cache retention budget; 0 keeps the cache's current budget.
  std::uint64_t cache_budget_bytes = 0;
  /// Emit one stats line every this many responses (0 = never).
  std::size_t stats_every = 0;
  /// Stream for stats lines; nullptr means std::cerr.
  std::ostream* stats_stream = nullptr;
};

/// Cumulative service counters plus latency percentiles over the bounded
/// ring (the most recent <= 1024 responses).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t batches = 0;  ///< engine executions (groups dispatched).
  /// Requests that shared their engine execution with at least one other.
  std::uint64_t coalesced_requests = 0;
  std::uint64_t cache_hits = 0;    ///< request-level context-cache hits.
  std::uint64_t cache_misses = 0;
  std::size_t max_queue_depth = 0;
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
};

/// Per-group walls + cache outcome, shared by the group's responses.
struct GroupTelemetry {
  bool cache_hit = false;
  double build_wall_seconds = 0.0;
  double run_wall_seconds = 0.0;
  /// The observation-snapshot share of run_wall_seconds (forwarding only).
  double snapshot_wall_seconds = 0.0;
  std::size_t batch_size = 1;
};

class SweepService {
 public:
  /// Receives the response object for one request. Invoked on the
  /// dispatcher thread; must not re-enter the service except enqueue().
  using Callback = std::function<void(const Json&)>;

  /// Bounds on ServiceConfig, checked before any thread starts.
  static constexpr std::size_t kMaxThreads = 1024;
  static constexpr double kMaxBatchWindowSeconds = 60.0;

  /// Throws std::invalid_argument, before starting a thread, for a config
  /// past the bounds above.
  explicit SweepService(ServiceConfig config = {});
  /// Drains the queue, then stops the dispatcher and the pool.
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Admits a request; the callback fires once with its response.
  void enqueue(Request request, Callback callback);

  /// Blocking convenience: enqueue + wait for this request's response.
  [[nodiscard]] Json execute(Request request);

  /// Blocks until every admitted request has been answered.
  void drain();

  [[nodiscard]] ServiceStats stats() const;

  /// True once an admin shutdown request has been answered; the server
  /// loop polls this to exit.
  [[nodiscard]] bool shutdown_requested() const noexcept;

 private:
  struct Pending {
    Request request;
    Callback callback;
    engine::Clock::time_point admitted;
    std::size_t depth_at_admission = 0;
  };

  void dispatch_loop();
  void execute_group(std::vector<Pending>& group);
  void execute_forwarding_group(std::vector<Pending>& group);
  void execute_path_group(std::vector<Pending>& group);
  void execute_model_group(std::vector<Pending>& group);
  void execute_admin(Pending& pending);
  /// Stamps telemetry, records latency, invokes the callback, and emits
  /// the periodic stats line when due.
  void respond(Pending& pending, Json payload, bool ok,
               const GroupTelemetry& telemetry);
  void respond_error(Pending& pending, const std::string& error);
  [[nodiscard]] Json stats_json() const;

  ServiceConfig config_;
  engine::ThreadPool pool_;

  mutable util::Mutex mu_;
  util::ConditionVariable queue_cv_;  ///< dispatcher wakeups.
  util::ConditionVariable idle_cv_;   ///< drain()/execute() wakeups.
  std::deque<Pending> queue_ PSN_GUARDED_BY(mu_);
  bool stopping_ PSN_GUARDED_BY(mu_) = false;
  /// A window's groups are executing.
  bool dispatching_ PSN_GUARDED_BY(mu_) = false;
  std::atomic<bool> shutdown_requested_{false};

  // Counters.
  std::uint64_t requests_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t responses_ok_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t responses_error_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t batches_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t coalesced_requests_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t cache_hits_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t cache_misses_ PSN_GUARDED_BY(mu_) = 0;
  std::size_t max_queue_depth_ PSN_GUARDED_BY(mu_) = 0;

  /// Bounded latency ring: the last kLatencyRing response latencies.
  static constexpr std::size_t kLatencyRing = 1024;
  std::vector<double> latencies_ PSN_GUARDED_BY(mu_);
  std::size_t latency_next_ PSN_GUARDED_BY(mu_) = 0;
  std::size_t latency_count_ PSN_GUARDED_BY(mu_) = 0;

  std::thread dispatcher_;  ///< last member: joins before the rest dies.
};

}  // namespace psn::serve
