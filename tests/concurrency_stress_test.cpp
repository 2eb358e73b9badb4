// Concurrency stress suite: the tests whose job is to put every lock in
// the engine and the serve layer under real contention. They pass as
// ordinary correctness tests (build-once probes, response counts), but
// their real audience is the TSan lane (`cmake --preset build-tsan`,
// .github/workflows/ci.yml `tsan` job): each test is shaped so that a
// missing acquisition in ScenarioContextCache, ObservationStore, or
// SweepService turns into a data-race report instead of a silent
// maybe-flake. The static half of the same discipline is the Clang
// Thread Safety annotations (util/thread_annotations.hpp, DESIGN.md §12).

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "psn/core/dataset.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/run_spec.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/serve/json.hpp"
#include "psn/serve/request.hpp"
#include "psn/serve/service.hpp"
#include "psn/synth/conference.hpp"

namespace psn {
namespace {

// Small but contact-dense dataset: enough structure that graph and
// snapshot builds take real time (widening the race window), small
// enough that a stress test stays in the sub-second range per build.
core::Dataset stress_dataset(std::uint64_t seed, const std::string& name) {
  synth::ConferenceConfig config;
  config.mobile_nodes = 24;
  config.stationary_nodes = 0;
  config.t_max = 2700.0;
  config.mean_node_rate = 0.08;
  config.gaps = synth::GapModel::exponential;
  config.scan_interval = 0.0;
  config.seed = seed;
  auto dataset = core::make_dataset(name, synth::generate_conference(config));
  dataset.message_horizon = 1800.0;
  return dataset;
}

engine::Scenario owned_scenario(std::uint64_t seed, const std::string& name) {
  engine::Scenario scenario;
  scenario.name = name;
  scenario.dataset =
      std::make_shared<const core::Dataset>(stress_dataset(seed, name));
  return scenario;
}

// Satellite of the thread-safety tentpole: N threads race
// adopt_shared_snapshot on a COLD scenario — every thread holds its own
// FRESH instance, asks the context's ObservationStore for the shared
// snapshot, and adopts it. The build-count probe (the atomic wrapped
// around the build callback) must read exactly 1: the double-checked
// per-key slot lock in ObservationStore::get_or_build collapses all N
// builders into one. Under TSan this additionally proves the snapshot
// publication itself is race-free (the losing threads read the pointer
// the winner published).
TEST(ObservationStoreStress, RacingAdoptersObserveExactlyOneBuild) {
  auto& cache = engine::ScenarioContextCache::instance();
  const auto scenario = owned_scenario(211, "stress-adopt-cold");
  const auto context = cache.acquire(scenario);
  ASSERT_NE(context, nullptr);
  ASSERT_NE(context->observations, nullptr);

  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    // Per-round key: each round starts from a cold slot again.
    const std::string round_suffix = "#round" + std::to_string(round);
    std::atomic<int> builds{0};
    std::atomic<int> built_flags{0};
    std::vector<engine::ObservationStore::SnapshotPtr> adopted(kThreads);
    std::barrier start(kThreads);

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const auto algorithm = forward::make_algorithm("FRESH");
        const std::string key =
            algorithm->shared_snapshot_key() + round_suffix;
        start.arrive_and_wait();
        const auto [snapshot, built] =
            context->observations->get_or_build(key, [&] {
              builds.fetch_add(1, std::memory_order_relaxed);
              return algorithm->build_shared_snapshot(
                  *context->graph, context->dataset->trace);
            });
        if (built) built_flags.fetch_add(1, std::memory_order_relaxed);
        algorithm->adopt_shared_snapshot(snapshot);
        adopted[t] = snapshot;
      });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(builds.load(), 1) << "round " << round;
    EXPECT_EQ(built_flags.load(), 1) << "round " << round;
    for (std::size_t t = 1; t < kThreads; ++t)
      EXPECT_EQ(adopted[t], adopted[0])
          << "thread " << t << " adopted a different snapshot";
  }
}

struct TinySnapshot final : forward::ObservationSnapshot {
  [[nodiscard]] std::uint64_t bytes() const override { return 8; }
};

// Distinct keys must NOT serialize on one another: two key families
// racing concurrently still build exactly once per key. Guards against
// the "fix" of replacing the per-slot mutex with the store-wide one.
TEST(ObservationStoreStress, DistinctKeysBuildIndependently) {
  engine::ObservationStore store;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 4;
  std::atomic<int> builds{0};
  std::barrier start(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const std::string key = "key-" + std::to_string(t % kKeys);
      (void)store.get_or_build(key, [&] {
        builds.fetch_add(1, std::memory_order_relaxed);
        return std::make_shared<const TinySnapshot>();
      });
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), static_cast<int>(kKeys));
}

// A snapshot build that throws leaves the store as it was: nothing is
// published and bytes() is unchanged, so the next caller builds the key,
// exactly once. Callers racing a build that throws see either its
// exception or the one snapshot built after it, never null.
TEST(ObservationStoreStress, ThrowingBuildPublishesNothing) {
  using SnapshotPtr = engine::ObservationStore::SnapshotPtr;
  engine::ObservationStore store;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<const TinySnapshot>();
  };
  (void)store.get_or_build("other", build);
  const std::uint64_t bytes_before = store.bytes();
  EXPECT_THROW((void)store.get_or_build("key",
                                        []() -> SnapshotPtr {
                                          throw std::runtime_error("build");
                                        }),
               std::runtime_error);
  EXPECT_EQ(store.bytes(), bytes_before);

  builds = 0;
  const auto [snapshot, built] = store.get_or_build("key", build);
  EXPECT_TRUE(built);
  ASSERT_TRUE(snapshot != nullptr);
  EXPECT_EQ(store.bytes(), bytes_before + 8);
  const auto [again, rebuilt] = store.get_or_build("key", build);
  EXPECT_FALSE(rebuilt);
  EXPECT_EQ(again, snapshot);
  EXPECT_EQ(builds, 1);

  constexpr std::size_t kThreads = 8;
  for (int round = 0; round < 4; ++round) {
    const std::string key = "racing#" + std::to_string(round);
    std::atomic<int> attempts{0};
    std::vector<SnapshotPtr> got(kThreads);
    std::vector<int> threw(kThreads, 0);
    std::barrier start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        try {
          got[t] = store.get_or_build(key, [&]() -> SnapshotPtr {
            if (attempts.fetch_add(1, std::memory_order_relaxed) == 0)
              throw std::runtime_error("first build");
            return std::make_shared<const TinySnapshot>();
          }).first;
        } catch (const std::runtime_error&) {
          threw[t] = 1;
        }
      });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(attempts.load(), 2) << "round " << round;
    const SnapshotPtr* published = nullptr;
    int exceptions = 0;
    for (std::size_t t = 0; t < kThreads; ++t) {
      if (threw[t] != 0) {
        ++exceptions;
        continue;
      }
      ASSERT_TRUE(got[t] != nullptr) << "round " << round << ", thread " << t;
      if (published == nullptr) published = &got[t];
      EXPECT_EQ(got[t], *published) << "round " << round << ", thread " << t;
    }
    EXPECT_EQ(exceptions, 1) << "round " << round;
  }
  EXPECT_EQ(store.bytes(), bytes_before + 8 * 5);
}

// N threads race ScenarioContextCache::acquire on a cold scenario: the
// per-entry lock must collapse them into one graph build, and every
// caller must get the same context instance.
TEST(ScenarioCacheStress, RacingAcquirersShareOneBuild) {
  auto& cache = engine::ScenarioContextCache::instance();
  constexpr std::size_t kThreads = 8;
  for (int round = 0; round < 4; ++round) {
    const auto scenario = owned_scenario(
        301 + static_cast<std::uint64_t>(round),
        "stress-acquire-" + std::to_string(round));
    const auto builds_before = cache.graphs_built();
    std::vector<std::shared_ptr<const engine::ScenarioContext>> got(kThreads);
    std::barrier start(kThreads);

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        got[t] = cache.acquire(scenario);
      });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(cache.graphs_built(), builds_before + 1) << "round " << round;
    for (std::size_t t = 1; t < kThreads; ++t)
      EXPECT_EQ(got[t], got[0]);
    (void)cache.evict(scenario.name);
  }
}

// The TSan centerpiece: concurrent serve traffic against a cache budget
// far too small to retain anything, so every request window races
// eviction, rebuild, and snapshot adoption while admin evict/clear/stats
// requests punch the cache from the side. Functionally this only asserts
// that every request is answered ok; under TSan it sweeps the whole
// service + cache + store lock graph under maximum churn.
TEST(ServeStress, CacheChurnUnderConcurrentRequestsAndAdmin) {
  auto& cache = engine::ScenarioContextCache::instance();
  const auto budget_before = cache.stats().budget_bytes;

  {
    serve::ServiceConfig config;
    config.threads = 4;
    config.batch_window_seconds = 0.0005;
    config.cache_budget_bytes = 4 * 1024;  // nothing fits: retention churns.
    serve::SweepService service(config);

    constexpr std::size_t kClients = 4;
    constexpr int kRequestsPerClient = 6;
    std::atomic<int> ok{0};
    std::atomic<int> failed{0};
    std::barrier start(kClients + 1);

    const auto count_response = [&](const serve::Json& response) {
      const serve::Json& ok_field = response.at("ok");
      if (ok_field.is_bool() && ok_field.as_bool())
        ok.fetch_add(1, std::memory_order_relaxed);
      else
        failed.fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> clients;
    clients.reserve(kClients + 1);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        start.arrive_and_wait();
        for (int i = 0; i < kRequestsPerClient; ++i) {
          serve::Request request;
          request.id = "c" + std::to_string(c) + "-" + std::to_string(i);
          request.family = serve::Family::kForwarding;
          // Two scenarios so eviction always has a victim that the next
          // request wants back; alternate per client and per iteration.
          request.forwarding.scenario =
              ((c + static_cast<std::size_t>(i)) % 2 == 0)
                  ? "conference_small"
                  : "random_waypoint";
          request.forwarding.algorithms = {"Epidemic", "FRESH"};
          request.forwarding.runs = 1;
          request.forwarding.master_seed = 7 + static_cast<std::uint64_t>(i);
          service.enqueue(std::move(request), count_response);
        }
      });
    }
    // Admin chaos monkey: evict/clear/stats while the sweeps run.
    clients.emplace_back([&] {
      start.arrive_and_wait();
      const serve::AdminCommand commands[] = {serve::AdminCommand::kStats,
                                              serve::AdminCommand::kEvict,
                                              serve::AdminCommand::kClear};
      for (int i = 0; i < 9; ++i) {
        serve::Request request;
        request.id = "admin-" + std::to_string(i);
        request.family = serve::Family::kAdmin;
        request.admin.command = commands[i % 3];
        if (request.admin.command == serve::AdminCommand::kEvict)
          request.admin.scenario = "conference_small";
        service.enqueue(std::move(request), count_response);
      }
    });
    for (auto& client : clients) client.join();
    service.drain();

    EXPECT_EQ(ok.load(), static_cast<int>(kClients) * kRequestsPerClient + 9);
    EXPECT_EQ(failed.load(), 0);

    const auto stats = service.stats();
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(kClients) * kRequestsPerClient + 9);
    EXPECT_EQ(stats.responses_ok, stats.requests);
  }

  // The service shrank the process-wide cache; put the budget back so
  // later suites (and reruns in one process) see the default behavior.
  cache.set_budget_bytes(budget_before);
  cache.clear();
}

// Exceptions crossing the pool: parallel_for must rethrow exactly one of
// the shard exceptions on the caller with the pool healthy afterwards,
// round after round, under worker contention.
TEST(ThreadPoolStress, ParallelForRethrowLeavesPoolHealthy) {
  engine::ThreadPool pool(4);
  const util::ParallelFor parallel = engine::parallel_for(pool);
  for (int round = 0; round < 16; ++round) {
    std::atomic<int> executed{0};
    try {
      parallel(64, [&](std::size_t shard) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (shard % 7 == 3) throw std::runtime_error("shard failure");
      });
      FAIL() << "parallel_for swallowed the shard exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "shard failure");
    }
    // The pool must still execute work after the failed round.
    std::atomic<int> after{0};
    parallel(16, [&](std::size_t) {
      after.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(after.load(), 16) << "round " << round;
  }
}

// Two sweeps sharing one pool: a forwarding sweep and a path sweep run
// at the same time, round after round, from two outside threads. Each
// fan-out waits for its own shards only, so neither waits on the other,
// and each result must equal its solo run. Under TSan this sweeps the
// pool's queue, parallel_for's per-call state and the cache's per-entry
// locks with two independent fan-outs interleaved on the same workers.
TEST(SweepStress, ConcurrentSweepsShareOnePool) {
  const auto scenario = owned_scenario(401, "stress-shared-pool");
  engine::PlanConfig config;
  config.runs = 2;
  config.message_rate = 0.02;
  const auto plan =
      engine::make_plan({scenario}, {"Epidemic", "PRoPHET"}, config);
  engine::PathSweepPlan path_plan;
  path_plan.scenarios = {scenario};
  path_plan.config.messages = 16;
  path_plan.config.k = 40;

  engine::ThreadPool pool(4);
  engine::SweepOptions options;
  options.pool = &pool;
  engine::PathSweepOptions path_options;
  path_options.pool = &pool;
  const auto solo = engine::run_sweep(plan, options);
  const auto solo_paths = engine::run_path_sweep(path_plan, path_options);

  constexpr int kRounds = 4;
  std::vector<engine::SweepResult> sweeps(kRounds);
  std::vector<engine::PathSweepResult> path_sweeps(kRounds);
  std::barrier start(2);
  std::thread forwarding([&] {
    start.arrive_and_wait();
    for (auto& sweep : sweeps) sweep = engine::run_sweep(plan, options);
  });
  std::thread paths([&] {
    start.arrive_and_wait();
    for (auto& sweep : path_sweeps)
      sweep = engine::run_path_sweep(path_plan, path_options);
  });
  forwarding.join();
  paths.join();

  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(sweeps[round].cells.size(), solo.cells.size());
    for (std::size_t c = 0; c < solo.cells.size(); ++c) {
      const auto& got = sweeps[round].cells[c];
      const auto& want = solo.cells[c];
      EXPECT_EQ(got.overall.delivered, want.overall.delivered) << round;
      EXPECT_EQ(got.overall.average_delay, want.overall.average_delay)
          << round;
      EXPECT_EQ(got.cost_per_message, want.cost_per_message) << round;
      EXPECT_EQ(got.delays, want.delays) << round;
    }
    const auto& got = path_sweeps[round].cells.at(0).records;
    const auto& want = solo_paths.cells.at(0).records;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(got[m].delivered, want[m].delivered) << round;
      EXPECT_EQ(got[m].optimal_duration, want[m].optimal_duration) << round;
      EXPECT_EQ(got[m].total_paths, want[m].total_paths) << round;
    }
  }
}

}  // namespace
}  // namespace psn
