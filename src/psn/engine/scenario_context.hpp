// ScenarioContext: the immutable, shareable simulation context of one
// scenario — its dataset plus the discretized space-time graph — and a
// process-wide cache that memoizes graph construction.
//
// Ownership / thread-safety model (DESIGN.md §4, §10):
//  * A context is immutable after construction and holds shared ownership
//    of its dataset, so any number of runs on any number of threads can
//    read it concurrently with no synchronization.
//  * The cache keys on (dataset identity, delta) and RETAINS contexts up
//    to a configurable byte budget (default 1 GiB): the dataset + graph
//    build of a scenario is paid once ever while the cache is within
//    budget, which is what makes a resident service (psn_serve) amortize
//    build cost across requests. When retaining a new context would
//    exceed the budget, least-recently-used retained contexts are
//    released first; a context larger than the whole budget is served but
//    never retained. Resident bytes never exceed the budget.
//  * Entries also keep a weak reference, so a context that was evicted
//    from the retained set but is still held by a caller is re-found (a
//    hit) rather than rebuilt — the cache can only ever under-retain,
//    never duplicate a live context.
//  * acquire() serializes per entry, not globally: two scenarios build
//    their graphs in parallel, while two threads asking for the same
//    scenario perform exactly one build between them (asserted by
//    engine_test's concurrent-acquire probe).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "psn/engine/run_spec.hpp"
#include "psn/forward/algorithm.hpp"
#include "psn/graph/space_time_graph.hpp"
#include "psn/util/parallel.hpp"
#include "psn/util/thread_annotations.hpp"

namespace psn::engine {

/// Internally synchronized store of shared observation snapshots — the
/// immutable, trace-derived state a ForwardingAlgorithm publishes under
/// its shared_snapshot_key() (algorithm.hpp). Snapshots are pure
/// functions of the scenario's graph, so one build serves every run,
/// algorithm instance, and thread of every sweep that shares the
/// context. Built lazily: a scenario swept only by history-free
/// algorithms never pays for one.
class ObservationStore {
 public:
  using SnapshotPtr = std::shared_ptr<const forward::ObservationSnapshot>;

  /// The snapshot under `key`, invoking `build` exactly once per key
  /// across all threads (concurrent same-key callers block on the one
  /// build; distinct keys build in parallel). The bool is true for the
  /// caller whose invocation built it — that caller re-accounts the
  /// owning context against the cache budget.
  std::pair<SnapshotPtr, bool> get_or_build(
      const std::string& key, const std::function<SnapshotPtr()>& build);

  /// Total bytes of all published snapshots.
  [[nodiscard]] std::uint64_t bytes() const;

 private:
  struct Slot {
    util::Mutex mu;
  };

  /// The double-checked build-and-publish step: re-check under mu_, build
  /// outside it, publish under mu_. Serialized per key by `slot.mu` — the
  /// PSN_REQUIRES makes dropping that serialization a build break, not a
  /// duplicated build found (or missed) by a test.
  std::pair<SnapshotPtr, bool> build_in_slot(
      const std::string& key, Slot& slot,
      const std::function<SnapshotPtr()>& build) PSN_REQUIRES(slot.mu);

  mutable util::Mutex mu_;  ///< guards published_ and building_.
  std::map<std::string, SnapshotPtr> published_ PSN_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Slot>> building_ PSN_GUARDED_BY(mu_);
};

/// One scenario's shared read-only inputs: dataset + space-time graph,
/// plus the lazily-populated observation snapshots derived from them.
struct ScenarioContext {
  std::string name;
  std::shared_ptr<const core::Dataset> dataset;
  trace::Seconds delta = 10.0;
  std::shared_ptr<const graph::SpaceTimeGraph> graph;
  /// Always non-null for cache-acquired contexts. The store is the one
  /// internally-mutable member — everything it publishes is immutable.
  std::shared_ptr<ObservationStore> observations;
};

/// Counters of the context cache, all monotonically increasing except the
/// two residency gauges. Telemetry for psn_serve and the cache tests.
struct ScenarioCacheStats {
  std::uint64_t hits = 0;        ///< acquire() found a live context.
  std::uint64_t misses = 0;      ///< acquire() had to build.
  std::uint64_t evictions = 0;   ///< retained contexts released (LRU + explicit).
  std::uint64_t resident_bytes = 0;   ///< bytes currently retained (gauge).
  std::uint64_t budget_bytes = 0;     ///< the configured cap (gauge).
  std::size_t resident_contexts = 0;  ///< retained entry count (gauge).
};

/// Process-wide memoization of ScenarioContexts (see file comment).
class ScenarioContextCache {
 public:
  /// Retention budget at start-up: 1 GiB, changed at runtime via
  /// set_budget_bytes().
  static constexpr std::uint64_t kDefaultBudgetBytes = 1ull << 30;

  /// The process-wide cache instance.
  [[nodiscard]] static ScenarioContextCache& instance();

  /// The context for `scenario`, building its graph on first use (or
  /// after eviction once all previous holders released it). Thread-safe.
  /// The second argument is unused: the graph has one serial build. It
  /// stays only for perfbench's forward_city, which passes an executor,
  /// and goes with the next revision of the benchmark.
  [[nodiscard]] std::shared_ptr<const ScenarioContext> acquire(
      const Scenario& scenario, const util::ParallelFor* = nullptr);

  /// Number of SpaceTimeGraph constructions acquire() has performed — the
  /// build-count probe engine_test uses to assert a sweep builds each
  /// cell's graph exactly once.
  [[nodiscard]] std::uint64_t graphs_built() const noexcept {
    return graphs_built_.load(std::memory_order_relaxed);
  }

  /// Current counters. hits/misses/evictions are cumulative over the
  /// process; tests compare deltas around the operation under test.
  [[nodiscard]] ScenarioCacheStats stats() const;

  /// Sets the retention budget, releasing LRU contexts immediately if the
  /// new budget is below current residency. 0 disables retention (the
  /// cache degenerates to the weak memoization it grew out of).
  void set_budget_bytes(std::uint64_t budget);
  [[nodiscard]] std::uint64_t budget_bytes() const;

  /// Bytes acquire() accounts for `context` against the budget: the
  /// graph's CSR arena, the contact-trace payload, and any observation
  /// snapshots published so far — the allocations that dominate a
  /// resident scenario.
  [[nodiscard]] static std::uint64_t context_bytes(
      const ScenarioContext& context) noexcept;

  /// Recomputes the accounted bytes of the retained entry holding
  /// `context` — observation snapshots are built lazily *after*
  /// acquire(), so whoever builds one calls this to keep residency
  /// honest. Shrinks the LRU set if residency now exceeds the budget,
  /// releasing the grown entry itself when it alone no longer fits
  /// (resident bytes never exceed the budget). No-op when the context is
  /// not currently retained.
  void reaccount(const ScenarioContext& context);

  /// Releases every retained context whose scenario name is `name`
  /// (normally one; distinct deltas of one dataset share the name).
  /// Live holders keep their contexts valid — only the cache's retention
  /// (and thus the next acquire's rebuild-or-hit) is affected. Returns
  /// the number of entries released. psn_serve's admin `evict` and the
  /// cache tests use this.
  std::size_t evict(std::string_view name);

  /// Drops every cache entry and every retained context (live contexts
  /// stay valid; only the memoization is forgotten). Released retained
  /// contexts count as evictions.
  void clear();

  ScenarioContextCache(const ScenarioContextCache&) = delete;
  ScenarioContextCache& operator=(const ScenarioContextCache&) = delete;

 private:
  ScenarioContextCache() = default;

  /// Identity of a context: the dataset instance and the discretization.
  /// The dataset pointer cannot alias a *different* dataset while its
  /// entry is lockable, because a live context keeps the dataset alive.
  using Key = std::pair<const core::Dataset*, trace::Seconds>;

  /// Per-key slot with its own mutex so distinct scenarios build
  /// concurrently while same-key builds collapse into one. The weak
  /// `context` is guarded by the entry's own `mu`; the retention fields
  /// (`retained`, `bytes`, `last_use`) are guarded by the cache-wide mu_
  /// so eviction never needs a per-entry lock. That cross-object guard is
  /// outside the attribute grammar (an Entry cannot name the cache's
  /// mutex), so it is enforced one level up: every function touching the
  /// retention fields is PSN_REQUIRES(mu_).
  struct Entry {
    util::Mutex mu;
    std::weak_ptr<const ScenarioContext> context PSN_GUARDED_BY(mu);
    std::shared_ptr<const ScenarioContext> retained;  ///< guarded by mu_.
    std::uint64_t bytes = 0;                          ///< guarded by mu_.
    std::uint64_t last_use = 0;                       ///< guarded by mu_.

    /// context.expired() WITHOUT holding `mu`. Safe only from acquire()'s
    /// pruning block: it runs under the cache-wide mu_ and checks
    /// use_count() == 1 first, so no concurrent writer of `context` can
    /// exist (writers hold a shared_ptr copy of this entry, and new
    /// copies are minted only under mu_). DESIGN.md §12 carries the full
    /// proof obligation.
    [[nodiscard]] bool context_expired_unguarded() const
        PSN_NO_THREAD_SAFETY_ANALYSIS {
      return context.expired();
    }
  };

  /// The per-entry find-or-build step of acquire(), serialized by the
  /// entry's own mutex (same-key callers collapse into one build).
  std::shared_ptr<const ScenarioContext> find_or_build_in_entry(
      const Scenario& scenario, Entry& entry) PSN_REQUIRES(entry.mu);

  /// Retains `context` in `entry` if it fits the budget, evicting LRU
  /// entries as needed.
  void retain_locked(Entry& entry,
                     const std::shared_ptr<const ScenarioContext>& context)
      PSN_REQUIRES(mu_);
  /// Releases retained contexts, LRU first, until residency fits
  /// `budget`. `keep` (may be null) is never released.
  void shrink_to_locked(std::uint64_t budget, const Entry* keep)
      PSN_REQUIRES(mu_);
  void release_locked(Entry& entry) PSN_REQUIRES(mu_);

  mutable util::Mutex mu_;  ///< guards entries_, retention fields, stats.
  // det-waiver(pointer-key): cache bookkeeping only. Contexts are
  // deterministic builds, so WHICH entry eviction scans first can change
  // cost (a rebuild) but never result bytes; LRU victims are chosen by
  // last_use tick, with pointer order at most breaking exact ties.
  std::map<Key, std::shared_ptr<Entry>> entries_ PSN_GUARDED_BY(mu_);
  std::uint64_t budget_bytes_ PSN_GUARDED_BY(mu_) = kDefaultBudgetBytes;
  std::uint64_t resident_bytes_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t lru_tick_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ PSN_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ PSN_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> graphs_built_{0};
};

}  // namespace psn::engine
