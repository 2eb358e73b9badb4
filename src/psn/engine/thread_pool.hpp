// A fixed-size worker pool for the sweep engine.
//
// Deliberately minimal: FIFO queue, submit() + wait_idle(), no futures.
// The engine fans out only through parallel_for below: every sweep phase
// is one parallel_for call whose shards write pre-sized, index-addressed
// slots, so results never depend on which thread ran a shard or when.
// Tasks must not throw — parallel_for catches inside its own tasks.

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "psn/util/parallel.hpp"
#include "psn/util/thread_annotations.hpp"

namespace psn::engine {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 is clamped to 1.
  explicit ThreadPool(std::size_t num_threads);

  /// Drains the queue (wait_idle) and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe to call from any thread, including workers.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing — every
  /// task of every submitter, so a fan-out should wait on parallel_for
  /// instead. Must not be called from a worker (it would wait on itself).
  void wait_idle();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Reasonable default thread count for this host (>= 1).
  [[nodiscard]] static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();

  /// Written once by the constructor, joined by the destructor; read-only
  /// (size()) in between — never touched by worker threads.
  std::vector<std::thread> workers_;
  util::Mutex mu_;
  std::deque<std::function<void()>> queue_ PSN_GUARDED_BY(mu_);
  util::ConditionVariable work_cv_;
  util::ConditionVariable idle_cv_;
  std::size_t in_flight_ PSN_GUARDED_BY(mu_) = 0;
  bool stopping_ PSN_GUARDED_BY(mu_) = false;
};

/// Adapts `pool` to the util::ParallelFor contract: runs f(shard) for
/// every shard in [0, num_shards) exactly once and returns when all of
/// them are done. Shards are handed out in index order from one atomic
/// counter to up to min(pool.size(), num_shards) lanes.
///
/// Who takes a lane: pool workers only. A caller from outside the pool
/// just waits, so shards (and their thread_local workspaces) stay on pool
/// threads. A caller that is itself a worker of `pool` — a nested
/// fan-out, such as a sweep entered from a pool task — takes one lane
/// and drains whatever the helpers it queued have not reached, so it
/// never waits on tasks queued behind its own and cannot deadlock.
///
/// The call waits for its own shards only, never for unrelated pool work,
/// so concurrent fan-outs on one pool do not wait on each other. The
/// first exception thrown by any shard is rethrown on the caller once
/// every shard has been attempted. Shard results must not depend on which
/// thread ran them (the ParallelFor contract).
///
/// The returned closure borrows `pool`, which must outlive it.
[[nodiscard]] util::ParallelFor parallel_for(ThreadPool& pool);

}  // namespace psn::engine
