#include "psn/engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "psn/util/thread_annotations.hpp"

namespace psn::engine {

namespace {

/// The pool whose worker_loop runs on this thread, nullptr elsewhere:
/// tells parallel_for a nested fan-out from an outside caller.
thread_local const ThreadPool* current_pool = nullptr;

/// Shared state of one parallel_for invocation. Heap-allocated and held
/// by shared_ptr from every helper task, so the caller can return as soon
/// as all *shards* are done without waiting for straggler helper tasks
/// that were queued but never reached the counter (they find next >=
/// num_shards and exit against still-valid state).
struct ForState {
  std::size_t num_shards = 0;
  const std::function<void(std::size_t)>* f = nullptr;  // caller-owned.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  util::Mutex mu;
  util::ConditionVariable cv;
  std::exception_ptr error PSN_GUARDED_BY(mu);  // first failure.
  bool all_done PSN_GUARDED_BY(mu) = false;     // done == num_shards.

  /// Grabs shards until none remain. `f` stays valid while shards
  /// remain: the caller blocks until done == num_shards, and done only
  /// reaches num_shards after the last f(shard) returned.
  void drain() {
    for (;;) {
      const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= num_shards) return;
      try {
        (*f)(shard);
      } catch (...) {
        util::LockGuard lock(mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_shards) {
        util::LockGuard lock(mu);
        all_done = true;
        cv.notify_all();
      }
    }
  }
};

}  // namespace

util::ParallelFor parallel_for(ThreadPool& pool) {
  return [&pool](std::size_t num_shards,
                 const std::function<void(std::size_t)>& f) {
    if (num_shards == 0) return;
    auto state = std::make_shared<ForState>();
    state->num_shards = num_shards;
    state->f = &f;
    // One lane per worker, capped by the shard count; a worker of this
    // pool is one of the lanes itself. Helpers queued behind other pool
    // work simply arrive late and find nothing left; pool tasks must not
    // throw, and drain() catches everything.
    const bool nested = current_pool == &pool;
    const std::size_t lanes = std::min(pool.size(), num_shards);
    for (std::size_t h = nested ? 1 : 0; h < lanes; ++h)
      pool.submit([state] { state->drain(); });
    if (nested) state->drain();
    // Take the exception out of the shared state under its lock, so the
    // last reference to it dies on this thread: a helper task that drops
    // the final ForState reference must not free an exception the caller
    // is still reading.
    std::exception_ptr error;
    {
      util::LockGuard lock(state->mu);
      while (!state->all_done) state->cv.wait(lock);
      error = std::exchange(state->error, nullptr);
    }
    if (error) std::rethrow_exception(error);
  };
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    util::LockGuard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    util::LockGuard lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  util::LockGuard lock(mu_);
  while (!queue_.empty() || in_flight_ != 0) idle_cv_.wait(lock);
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      util::LockGuard lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      util::LockGuard lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace psn::engine
