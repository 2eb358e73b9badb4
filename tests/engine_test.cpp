// Tests for psn::engine: the thread pool and parallel_for's contract,
// plan slots / seed streams, sweeps entered from a task of their own
// pool, and — the load-bearing property — determinism of the sweep under
// parallelism: the same plan must produce bit-identical aggregated
// metrics serially (no pool) and at 1, 2, and 8 pool threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "psn/core/dataset.hpp"
#include "psn/engine/model_sweep.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/run_spec.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/synth/conference.hpp"

#include "dataset_digest.hpp"

namespace psn::engine {
namespace {

// A small but non-trivial dataset: 24 nodes, 45 minutes, heterogeneous
// weights so the pair-type split is exercised.
core::Dataset small_dataset(std::uint64_t seed) {
  synth::ConferenceConfig config;
  config.mobile_nodes = 24;
  config.stationary_nodes = 0;
  config.t_max = 2700.0;
  config.mean_node_rate = 0.08;
  config.gaps = synth::GapModel::exponential;
  config.scan_interval = 0.0;
  config.seed = seed;
  auto dataset =
      core::make_dataset("engine-test", synth::generate_conference(config));
  dataset.message_horizon = 1800.0;
  return dataset;
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // Must not deadlock.
  SUCCEED();
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

// The pool-only rule: a caller from outside the pool never takes a lane,
// so every shard (and any thread_local workspace it warms) runs on a pool
// worker — exactly once, at any pool and shard count.
TEST(ParallelFor, OutsideCallerRunsEveryShardOnceOnThePool) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const util::ParallelFor parallel = parallel_for(pool);
    for (const std::size_t shards : {1u, 4u, 64u}) {
      std::vector<std::atomic<int>> runs(shards);
      std::vector<std::thread::id> ran_on(shards);
      parallel(shards, [&](std::size_t shard) {
        runs[shard].fetch_add(1, std::memory_order_relaxed);
        ran_on[shard] = std::this_thread::get_id();
      });
      for (std::size_t shard = 0; shard < shards; ++shard) {
        EXPECT_EQ(runs[shard].load(), 1)
            << threads << " threads, shard " << shard << "/" << shards;
        EXPECT_NE(ran_on[shard], caller)
            << threads << " threads, shard " << shard << "/" << shards;
      }
    }
  }
}

TEST(SweepPlan, SlotsCoverTheCrossProductInOrder) {
  const auto ds = small_dataset(11);
  PlanConfig config;
  config.runs = 3;
  auto plan = make_plan({make_scenario(ds), make_scenario(ds)},
                        {"Epidemic", "FRESH", "Greedy"}, config);
  EXPECT_EQ(plan.total_runs(), 2u * 3u * 3u);
  // Linearization: scenario-major, then algorithm, then repetition, each
  // slot once.
  std::size_t next = 0;
  for (std::size_t s = 0; s < 2; ++s)
    for (std::size_t a = 0; a < 3; ++a)
      for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(plan.slot(s, a, r), next++);
  EXPECT_EQ(next, plan.total_runs());
  // Both read the config's run count.
  plan.config.runs = 5;
  EXPECT_EQ(plan.total_runs(), 2u * 3u * 5u);
  EXPECT_EQ(plan.slot(1, 2, 4), plan.total_runs() - 1);
}

TEST(SweepPlan, EveryScenarioReplaysTheLegacyStudyStreams) {
  // The pre-engine forwarding study used seed + r*1000003 (workload) and
  // seed + r*7919 (simulator); the engine must preserve both so old
  // results stay reproducible.
  const std::uint64_t master = 7;
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(workload_stream_seed(master, r), master + r * 1000003ULL);
    EXPECT_EQ(sim_stream_seed(master, r), master + r * 7919ULL);
  }
  // The seeds follow the run index alone, so two scenarios of one dataset
  // report the same cell.
  const auto ds = small_dataset(11);
  PlanConfig config;
  config.runs = 3;
  config.master_seed = master;
  config.message_rate = 0.02;
  const auto result = run_sweep(
      make_plan({make_scenario(ds), make_scenario(ds)}, {"FRESH"}, config));
  const CellSummary& lhs = result.cell(0, 0);
  const CellSummary& rhs = result.cell(1, 0);
  EXPECT_GT(lhs.overall.delivered, 0u);
  EXPECT_EQ(lhs.overall.delivered, rhs.overall.delivered);
  EXPECT_EQ(lhs.overall.average_delay, rhs.overall.average_delay);
  EXPECT_EQ(lhs.delays, rhs.delays);
  EXPECT_EQ(lhs.cost_per_message, rhs.cost_per_message);
  EXPECT_EQ(lhs.effort.decisions, rhs.effort.decisions);
}

TEST(Sweep, UnknownAlgorithmPropagatesError) {
  const auto ds = small_dataset(13);
  PlanConfig config;
  config.runs = 1;
  const auto plan =
      make_plan({make_scenario(ds)}, {"No Such Algorithm"}, config);
  ThreadPool pool(2);
  SweepOptions options;
  options.pool = &pool;
  EXPECT_THROW((void)run_sweep(plan, options), std::invalid_argument);
}

// The headline guarantee: bit-identical aggregated metrics at 1, 2, and 8
// threads for the same plan.
TEST(Sweep, DeterministicAcrossThreadCounts) {
  const auto ds = small_dataset(17);
  PlanConfig config;
  config.runs = 4;
  config.master_seed = 21;
  config.message_rate = 0.02;
  const auto plan = make_plan({make_scenario(ds)},
                              {"Epidemic", "FRESH", "Greedy"}, config);

  std::vector<SweepResult> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    SweepOptions options;
    options.pool = &pool;
    results.push_back(run_sweep(plan, options));
  }

  const auto& base = results.front();
  ASSERT_EQ(base.cells.size(), 3u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto& other = results[i];
    ASSERT_EQ(other.cells.size(), base.cells.size());
    for (std::size_t c = 0; c < base.cells.size(); ++c) {
      const auto& lhs = base.cells[c];
      const auto& rhs = other.cells[c];
      EXPECT_EQ(lhs.algorithm, rhs.algorithm);
      // Bit-identical, hence EXPECT_EQ on doubles — no tolerance.
      EXPECT_EQ(lhs.overall.success_rate, rhs.overall.success_rate);
      EXPECT_EQ(lhs.overall.average_delay, rhs.overall.average_delay);
      EXPECT_EQ(lhs.overall.messages, rhs.overall.messages);
      EXPECT_EQ(lhs.overall.delivered, rhs.overall.delivered);
      EXPECT_EQ(lhs.cost_per_message, rhs.cost_per_message);
      EXPECT_EQ(lhs.delays, rhs.delays);
      for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_EQ(lhs.by_pair_type.per_type[t].success_rate,
                  rhs.by_pair_type.per_type[t].success_rate);
        EXPECT_EQ(lhs.by_pair_type.per_type[t].average_delay,
                  rhs.by_pair_type.per_type[t].average_delay);
      }
    }
  }
}

// Multi-scenario sweeps must be deterministic too.
TEST(Sweep, MultiScenarioDeterministicAcrossThreadCounts) {
  const auto ds_a = small_dataset(19);
  const auto ds_b = small_dataset(23);

  PlanConfig config;
  config.runs = 2;
  config.message_rate = 0.02;
  const auto plan =
      make_plan({make_scenario(ds_a), make_scenario(ds_b)},
                {"Epidemic", "Greedy"}, config);

  SweepOptions serial;  // no pool: every phase on this thread.
  ThreadPool pool(8);
  SweepOptions wide;
  wide.pool = &pool;
  const auto lhs = run_sweep(plan, serial);
  const auto rhs = run_sweep(plan, wide);
  ASSERT_EQ(lhs.cells.size(), 4u);
  for (std::size_t c = 0; c < lhs.cells.size(); ++c) {
    EXPECT_EQ(lhs.cells[c].overall.success_rate,
              rhs.cells[c].overall.success_rate);
    EXPECT_EQ(lhs.cells[c].overall.average_delay,
              rhs.cells[c].overall.average_delay);
    EXPECT_EQ(lhs.cells[c].delays, rhs.cells[c].delays);
  }
  // cell(s, a) indexing agrees with the flat layout.
  EXPECT_EQ(&lhs.cell(1, 1), &lhs.cells[3]);
}

/// FNV-1a over every deterministic CellSummary field, cell by cell: the
/// names, each Performance (overall, then the four pair types), the
/// pooled delays, the cost, the event counters and the effort counters.
/// Doubles enter as their bits; only the run walls are left out.
std::uint64_t cell_digest(const SweepResult& result) {
  std::uint64_t h = kFnv1aBasis;
  const auto mix = [&h](std::uint64_t v) { fnv1a_mix(h, v); };
  const auto bits = [&mix](double x) {
    mix(std::bit_cast<std::uint64_t>(x));
  };
  const auto text = [&mix](const std::string& s) {
    mix(s.size());
    for (const char ch : s) mix(static_cast<unsigned char>(ch));
  };
  const auto performance = [&](const forward::Performance& p) {
    text(p.algorithm);
    bits(p.success_rate);
    bits(p.average_delay);
    bits(p.average_hops);
    mix(p.messages);
    mix(p.delivered);
  };
  for (const CellSummary& cell : result.cells) {
    text(cell.scenario);
    text(cell.algorithm);
    performance(cell.overall);
    for (const forward::Performance& p : cell.by_pair_type.per_type)
      performance(p);
    mix(cell.delays.size());
    for (const double d : cell.delays) bits(d);
    bits(cell.cost_per_message);
    for (const std::uint64_t count :
         {cell.truncated_relay_steps, cell.expirations, cell.evictions,
          cell.drops, cell.budget_blocked, cell.buffer_rejections})
      mix(count);
    mix(cell.messages_offered);
    const forward::SimulationEffort& e = cell.effort;
    for (const std::uint64_t count :
         {e.active_steps, e.filter_edge_visits, e.worklist_edges,
          e.spliced_edges, e.complete_steps, e.relay_passes, e.relay_calls,
          e.decisions, e.transfers, e.flood_components})
      mix(count);
  }
  return h;
}

// Every deterministic CellSummary field of two seeded plans, pinned: two
// paper windows x the ten extended algorithms x 3 runs, one plan
// unconstrained and one with finite buffers and budgets, 2-byte messages
// and a TTL. The digests were measured before the sweep pooled each
// cell's runs in one pass; how a sweep pools its runs may change, the
// bits it reports may not. Functions of the generators, the simulator
// and the seeds alone, so they hold on any machine and thread count.
TEST(Sweep, CellSummariesArePinned) {
  const core::Dataset windows[] = {core::DatasetFactory::paper_dataset(0),
                                   core::DatasetFactory::paper_dataset(1)};
  PlanConfig unconstrained;
  unconstrained.runs = 3;
  unconstrained.master_seed = 41;
  unconstrained.message_rate = 0.05;
  PlanConfig constrained = unconstrained;
  constrained.traffic.contact_budget_bytes = 6;
  constrained.traffic.buffer_capacity_bytes = 8;
  constrained.message_size_bytes = 2;
  constrained.message_ttl = 1800.0;
  struct Pin {
    const char* name;
    const PlanConfig* config;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"unconstrained", &unconstrained, 0x49327f72f7050c5aull},
      {"constrained", &constrained, 0x988c6d0e889716c0ull},
  };
  ThreadPool pool(4);
  SweepOptions options;
  options.pool = &pool;
  for (const Pin& pin : pins) {
    const auto plan =
        make_plan({make_scenario(windows[0]), make_scenario(windows[1])},
                  forward::extended_algorithm_names(), *pin.config);
    const auto result = run_sweep(plan, options);
    ASSERT_EQ(result.cells.size(), 20u) << pin.name;
    std::uint64_t delivered = 0;
    std::uint64_t traffic_events = 0;
    for (const CellSummary& cell : result.cells) {
      delivered += cell.overall.delivered;
      traffic_events += cell.evictions + cell.budget_blocked +
                        cell.expirations + cell.buffer_rejections;
    }
    // Neither plan is vacuous, and only the constrained one contends.
    EXPECT_GT(delivered, 0u) << pin.name;
    EXPECT_EQ(traffic_events > 0, pin.config == &constrained) << pin.name;
    EXPECT_EQ(cell_digest(result), pin.digest)
        << pin.name << ": 0x" << std::hex << cell_digest(result);
  }
}

TEST(ScenarioRegistry, UnknownNameErrorListsRegisteredScenarios) {
  // A typo'd scenario must be self-diagnosing: the error carries every
  // registered name, sourced from scenario_names().
  try {
    (void)make_scenario_by_name("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    for (const std::string& name : scenario_names())
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
}

TEST(ScenarioRegistry, DatasetsAreSharedWhileHeld) {
  // The registry memoizes datasets by name: while a holder keeps one
  // alive, repeated builds return the same object without regenerating.
  const auto held = make_scenario_by_name("town_128");
  const auto before = scenario_datasets_built();
  const auto again = make_scenario_by_name("town_128");
  EXPECT_EQ(scenario_datasets_built(), before);
  EXPECT_EQ(held.dataset.get(), again.dataset.get());
}

TEST(ScenarioRegistry, NamesAreBuildableAndUnknownThrows) {
  const auto names = scenario_names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_THROW((void)make_scenario_by_name("no-such-scenario"),
               std::invalid_argument);
  // The small tiers build quickly; the owned dataset matches the name's
  // advertised population. (city_2048 is exercised by integration_test.)
  const auto small = make_scenario_by_name("conference_small");
  ASSERT_TRUE(small.dataset != nullptr);
  EXPECT_EQ(small.name, "conference_small");
  EXPECT_EQ(small.dataset->trace.num_nodes(), 98u);
  const auto town = make_scenario_by_name("town_128");
  EXPECT_EQ(town.dataset->trace.num_nodes(), 128u);
  EXPECT_FALSE(town.dataset->trace.empty());
}

TEST(ScenarioRegistry, RandomWaypointIsRegisteredAndBuildable) {
  // The random-waypoint mobility family was promoted from an ad-hoc
  // synth call into the registry alongside the sizing tiers.
  const auto names = scenario_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "random_waypoint"),
            names.end());
  const auto scenario = make_scenario_by_name("random_waypoint");
  ASSERT_TRUE(scenario.dataset != nullptr);
  EXPECT_EQ(scenario.name, "random_waypoint");
  EXPECT_EQ(scenario.dataset->trace.num_nodes(), 40u);
  EXPECT_FALSE(scenario.dataset->trace.empty());
}

TEST(ScenarioRegistry, RepeatedBuildsAreIdentical) {
  const auto a = make_scenario_by_name("town_128");
  const auto b = make_scenario_by_name("town_128");
  ASSERT_EQ(a.dataset->trace.size(), b.dataset->trace.size());
  for (std::size_t i = 0; i < a.dataset->trace.size(); ++i)
    EXPECT_EQ(a.dataset->trace[i], b.dataset->trace[i]);
}

// The scale-up guarantee: a past-the-Bitset128-ceiling scenario (512
// nodes) sweeps bit-identically serially and at 8 threads, epidemic plus a
// single-copy scheme, with no silent relay truncation.
TEST(Sweep, Campus512BitIdenticalAcrossThreadCounts) {
  const auto scenario = make_scenario_by_name("campus_512");
  ASSERT_EQ(scenario.dataset->trace.num_nodes(), 512u);

  PlanConfig config;
  config.runs = 2;
  config.master_seed = 17;
  config.message_rate = 0.005;  // ~36 messages per run keeps this quick.
  const auto plan = make_plan({scenario}, {"Epidemic", "FRESH"}, config);

  SweepOptions serial;  // no pool: every phase on this thread.
  ThreadPool pool(8);
  SweepOptions wide;
  wide.pool = &pool;
  const auto lhs = run_sweep(plan, serial);
  const auto rhs = run_sweep(plan, wide);

  ASSERT_EQ(lhs.cells.size(), 2u);
  ASSERT_EQ(rhs.cells.size(), 2u);
  for (std::size_t c = 0; c < lhs.cells.size(); ++c) {
    const auto& a = lhs.cells[c];
    const auto& b = rhs.cells[c];
    EXPECT_EQ(a.algorithm, b.algorithm);
    // Bit-identical, hence EXPECT_EQ on doubles — no tolerance.
    EXPECT_EQ(a.overall.success_rate, b.overall.success_rate);
    EXPECT_EQ(a.overall.average_delay, b.overall.average_delay);
    EXPECT_EQ(a.overall.average_hops, b.overall.average_hops);
    EXPECT_EQ(a.overall.delivered, b.overall.delivered);
    EXPECT_EQ(a.cost_per_message, b.cost_per_message);
    EXPECT_EQ(a.delays, b.delays);
    EXPECT_EQ(a.truncated_relay_steps, b.truncated_relay_steps);
    EXPECT_EQ(a.truncated_relay_steps, 0u);
    EXPECT_EQ(a.run_walls.size(), config.runs);
  }
  // The flood must actually spread at this scale.
  EXPECT_GT(lhs.cells[0].overall.delivered, 0u);
}

// Bit-identical cell comparison (no tolerance on doubles).
void expect_cells_identical(const SweepResult& lhs, const SweepResult& rhs) {
  ASSERT_EQ(lhs.cells.size(), rhs.cells.size());
  for (std::size_t c = 0; c < lhs.cells.size(); ++c) {
    const auto& a = lhs.cells[c];
    const auto& b = rhs.cells[c];
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.overall.messages, b.overall.messages);
    EXPECT_EQ(a.overall.delivered, b.overall.delivered);
    EXPECT_EQ(a.overall.success_rate, b.overall.success_rate);
    EXPECT_EQ(a.overall.average_delay, b.overall.average_delay);
    EXPECT_EQ(a.overall.average_hops, b.overall.average_hops);
    EXPECT_EQ(a.cost_per_message, b.cost_per_message);
    EXPECT_EQ(a.delays, b.delays);
    EXPECT_EQ(a.truncated_relay_steps, b.truncated_relay_steps);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(a.by_pair_type.per_type[t].success_rate,
                b.by_pair_type.per_type[t].success_rate);
      EXPECT_EQ(a.by_pair_type.per_type[t].average_delay,
                b.by_pair_type.per_type[t].average_delay);
    }
  }
}

TEST(ScenarioRegistry, ScaleTierNamesAreRegistered) {
  const auto names = scenario_names();
  for (const char* required :
       {"conference_small", "town_128", "campus_512", "city_2048",
        "city_2048_diurnal", "metro_16k", "megacity_65k"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required << " missing from scenario_names()";
  }
}

TEST(ScenarioRegistry, DiurnalTierHasQuietHours) {
  // city_2048_diurnal interleaves 20-minute dead zones into the window;
  // its active-step index must show the gaps the sparse event timeline
  // skips (the always-on city tiers have edges in nearly every step).
  const auto scenario = make_scenario_by_name("city_2048_diurnal");
  ASSERT_TRUE(scenario.dataset != nullptr);
  EXPECT_EQ(scenario.dataset->trace.num_nodes(), 2048u);
  EXPECT_FALSE(scenario.dataset->trace.empty());
  const auto context = ScenarioContextCache::instance().acquire(scenario);
  ASSERT_GT(context->graph->num_steps(), 0u);
  // A third of the window is quiet (factor-0 modulation). Contacts that
  // *start* in an active segment still bleed into the quiet one —
  // exponential durations have long tails and scan quantization delays
  // starts — so the dead fraction is smaller than 1/3, but must be far
  // from the always-on tiers, whose every step carries edges.
  EXPECT_LT(context->graph->num_active_steps(),
            (87 * context->graph->num_steps()) / 100);
  EXPECT_GT(context->graph->num_active_steps(),
            context->graph->num_steps() / 2);
}

TEST(ScenarioRegistry, DatasetBytesArePinned) {
  // Every registered dataset below the metro tiers (scale_test pins
  // those) and the three other paper windows, byte for byte: contact
  // times the 10 s graph step rounds away still move the digest, which
  // the graph digests cannot see. Functions of the generators and their
  // configs alone, so they hold on any machine and thread count.
  struct Pin {
    const char* name;
    std::uint64_t digest;
  };
  constexpr Pin kScenarios[] = {
      {"conference_small", 0xeba85e1790632070ull},
      {"random_waypoint", 0x17c2fa942b8fb4afull},
      {"town_128", 0xf8fc72912df91c02ull},
      {"campus_512", 0xe430b401e5a1fd42ull},
      {"city_2048", 0x3593de9af4a15085ull},
      {"city_2048_diurnal", 0xa2067a4b1c91c860ull},
  };
  for (const Pin& pin : kScenarios)
    EXPECT_EQ(dataset_digest(*make_scenario_by_name(pin.name).dataset),
              pin.digest)
        << pin.name;
  constexpr Pin kOtherWindows[] = {
      {"infocom06-3-6", 0xce153f246a428af1ull},
      {"conext06-9-12", 0x8b8e05412facc670ull},
      {"conext06-3-6", 0xd1fa642790955805ull},
  };
  for (std::size_t i = 0; i < std::size(kOtherWindows); ++i) {
    const auto dataset = core::DatasetFactory::paper_dataset(i + 1);
    EXPECT_EQ(dataset.name, kOtherWindows[i].name);
    EXPECT_EQ(dataset_digest(dataset), kOtherWindows[i].digest)
        << kOtherWindows[i].name;
  }
}

// The flood-kernel choice run_sweep forwards must never change results,
// only walls: the scalar kernel is the component-index kernel's oracle.
TEST(Sweep, FloodKernelsAreBitIdentical) {
  const auto scenario = make_scenario_by_name("town_128");
  PlanConfig config;
  config.runs = 2;
  config.master_seed = 17;
  config.message_rate = 0.01;
  const auto plan = make_plan({scenario}, {"Epidemic", "FRESH"}, config);

  ThreadPool pool(2);
  SweepOptions indexed;
  indexed.pool = &pool;
  SweepOptions scalar = indexed;
  scalar.flood_kernel = forward::FloodKernel::kScalar;

  const auto fast = run_sweep(plan, indexed);
  const auto oracle = run_sweep(plan, scalar);
  expect_cells_identical(fast, oracle);
  EXPECT_GT(fast.cells[0].overall.delivered, 0u);
}

// Contention does not break the parallel determinism guarantee: a sweep
// with finite budgets, finite buffers and TTLs is bit-identical serially
// and at 8 threads, down to the traffic event counters.
TEST(Sweep, FiniteTrafficBitIdenticalAcrossThreadCounts) {
  const auto ds = small_dataset(29);
  PlanConfig config;
  config.runs = 3;
  config.master_seed = 5;
  config.message_rate = 0.05;
  config.traffic.contact_budget_bytes = 2;
  config.traffic.buffer_capacity_bytes = 3;
  config.message_ttl = 900.0;
  const auto plan =
      make_plan({make_scenario(ds)}, {"Epidemic", "Spray+Wait"}, config);

  SweepOptions serial;  // no pool: every phase on this thread.
  ThreadPool pool(8);
  SweepOptions wide;
  wide.pool = &pool;
  const auto lhs = run_sweep(plan, serial);
  const auto rhs = run_sweep(plan, wide);

  ASSERT_EQ(lhs.cells.size(), 2u);
  bool saw_traffic_events = false;
  for (std::size_t c = 0; c < lhs.cells.size(); ++c) {
    const auto& a = lhs.cells[c];
    const auto& b = rhs.cells[c];
    EXPECT_EQ(a.overall.success_rate, b.overall.success_rate);
    EXPECT_EQ(a.overall.average_delay, b.overall.average_delay);
    EXPECT_EQ(a.cost_per_message, b.cost_per_message);
    EXPECT_EQ(a.delays, b.delays);
    EXPECT_EQ(a.messages_offered, b.messages_offered);
    EXPECT_EQ(a.expirations, b.expirations);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.budget_blocked, b.budget_blocked);
    EXPECT_EQ(a.buffer_rejections, b.buffer_rejections);
    if (a.evictions > 0 || a.budget_blocked > 0) saw_traffic_events = true;
  }
  // The limits above are tight enough to bite on this dataset; a sweep
  // with zero contention events would be vacuous.
  EXPECT_TRUE(saw_traffic_events);
}

// The tentpole guarantee: run_sweep builds each cell's graph exactly once
// — one build per scenario regardless of algorithms, runs, or threads,
// and zero builds when a caller already holds the scenario's context.
TEST(Sweep, BuildsEachScenarioGraphExactlyOnce) {
  const auto ds = small_dataset(31);
  auto& cache = ScenarioContextCache::instance();
  PlanConfig config;
  config.runs = 3;
  config.message_rate = 0.02;
  const auto plan = make_plan({make_scenario(ds)},
                              {"Epidemic", "FRESH", "Greedy"}, config);

  // Cold cache: 9 runs on 8 threads perform exactly one graph build.
  {
    const auto before = cache.graphs_built();
    ThreadPool pool(8);
    SweepOptions options;
    options.pool = &pool;
    (void)run_sweep(plan, options);
    EXPECT_EQ(cache.graphs_built(), before + 1);
  }

  // Held context: further sweeps at any thread count build nothing.
  {
    const auto held = cache.acquire(plan.scenarios[0]);
    const auto before = cache.graphs_built();
    for (const std::size_t threads : {1u, 8u}) {
      ThreadPool pool(threads);
      SweepOptions options;
      options.pool = &pool;
      (void)run_sweep(plan, options);
    }
    EXPECT_EQ(cache.graphs_built(), before);
    EXPECT_EQ(held->dataset.get(), plan.scenarios[0].dataset.get());
  }
}

TEST(ScenarioContextCache, SameScenarioYieldsSameContext) {
  const auto ds = small_dataset(37);
  const auto scenario = make_scenario(ds);
  auto& cache = ScenarioContextCache::instance();
  const auto a = cache.acquire(scenario);
  const auto before = cache.graphs_built();
  const auto b = cache.acquire(scenario);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.graphs_built(), before);
  // A different delta is a different context (and a fresh build).
  auto other = make_scenario(ds, 30.0);
  const auto c = cache.acquire(other);
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(cache.graphs_built(), before + 1);
  EXPECT_EQ(c->graph->delta(), 30.0);
}

// The equivalence harness at sweep level: the sparse event timeline must
// reproduce the dense replay bit for bit on the infocom06 stand-in
// (conference_small) across the full paper algorithm matrix, at 1 and 8
// threads.
TEST(Sweep, SparseTimelineMatchesDenseOnInfocomMatrix) {
  const auto scenario = make_scenario_by_name("conference_small");
  PlanConfig config;
  config.runs = 2;
  config.master_seed = 7;
  config.message_rate = 0.01;
  const auto plan =
      make_plan({scenario}, forward::paper_algorithm_names(), config);

  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    SweepOptions dense;
    dense.pool = &pool;
    dense.replay = forward::ReplayMode::kDense;
    SweepOptions sparse;
    sparse.pool = &pool;
    sparse.replay = forward::ReplayMode::kSparse;
    const auto lhs = run_sweep(plan, dense);
    const auto rhs = run_sweep(plan, sparse);
    expect_cells_identical(lhs, rhs);
  }
}

// Tier coverage for the same equivalence: town_128 and campus_512 (the
// sparse exponential-gap tiers the timeline refactor targets);
// conference_small is covered above and city_2048 by integration_test.
TEST(Sweep, SparseTimelineMatchesDenseAcrossScaleTiers) {
  for (const char* name : {"town_128", "campus_512"}) {
    const auto scenario = make_scenario_by_name(name);
    PlanConfig config;
    config.runs = 2;
    config.master_seed = 17;
    config.message_rate = 0.005;
    const auto plan = make_plan({scenario}, {"Epidemic", "FRESH"}, config);
    for (const std::size_t threads : {1u, 8u}) {
      ThreadPool pool(threads);
      SweepOptions dense;
      dense.pool = &pool;
      dense.replay = forward::ReplayMode::kDense;
      SweepOptions sparse;
      sparse.pool = &pool;
      sparse.replay = forward::ReplayMode::kSparse;
      expect_cells_identical(run_sweep(plan, dense), run_sweep(plan, sparse));
    }
  }
}

// The holder-incident fast path plus shared observation snapshots — the
// default SweepOptions — must reproduce the full-replay, per-run-
// observation oracle bit for bit on the conference matrix across the
// whole extended algorithm suite, at 1 and 8 threads.
TEST(Sweep, HolderIncidentSharedObservationMatchesOracleOnInfocomMatrix) {
  const auto scenario = make_scenario_by_name("conference_small");
  PlanConfig config;
  config.runs = 2;
  config.master_seed = 11;
  config.message_rate = 0.01;
  const auto plan =
      make_plan({scenario}, forward::extended_algorithm_names(), config);

  for (const std::size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    SweepOptions oracle;
    oracle.pool = &pool;
    oracle.contact_scan = forward::ContactScan::kFull;
    oracle.observation = ObservationMode::kPerRun;
    SweepOptions fast;
    fast.pool = &pool;  // kHolderIncident + kShared defaults.
    expect_cells_identical(run_sweep(plan, oracle), run_sweep(plan, fast));
  }
}

// Same equivalence under contention: finite budgets, tight buffers and
// TTLs.
TEST(Sweep, HolderIncidentSharedObservationMatchesOracleUnderTraffic) {
  const auto ds = small_dataset(29);
  PlanConfig config;
  config.runs = 2;
  config.master_seed = 13;
  config.message_rate = 0.05;
  config.traffic.contact_budget_bytes = 2;
  config.traffic.buffer_capacity_bytes = 3;
  config.message_ttl = 900.0;
  const auto plan = make_plan(
      {make_scenario(ds)}, {"FRESH", "PRoPHET", "Spray+Wait"}, config);

  ThreadPool pool(8);
  SweepOptions oracle;
  oracle.pool = &pool;
  oracle.contact_scan = forward::ContactScan::kFull;
  oracle.observation = ObservationMode::kPerRun;
  SweepOptions fast;
  fast.pool = &pool;
  expect_cells_identical(run_sweep(plan, oracle), run_sweep(plan, fast));
}

// Phase 2 adopts each run's snapshot from the wave's (scenario, key)
// slots by index. With two scenarios, three distinct keys and an
// algorithm that publishes none, every cell must still match the
// per-run-observation oracle bit for bit.
TEST(Sweep, MultiScenarioSharedSnapshotsMatchPerRunOracle) {
  const auto ds_a = small_dataset(19);
  const auto ds_b = small_dataset(23);
  PlanConfig config;
  config.runs = 2;
  config.master_seed = 17;
  config.message_rate = 0.03;
  const auto plan =
      make_plan({make_scenario(ds_a), make_scenario(ds_b)},
                {"Direct", "FRESH", "Epidemic", "PRoPHET", "Greedy Online"},
                config);

  ThreadPool pool(4);
  SweepOptions oracle;
  oracle.pool = &pool;
  oracle.observation = ObservationMode::kPerRun;
  SweepOptions fast;
  fast.pool = &pool;
  expect_cells_identical(run_sweep(plan, oracle), run_sweep(plan, fast));
}

// An owning scenario (unlike make_scenario's caller-owned alias), so the
// cache is allowed to retain its context — the paths the LRU-budget and
// concurrency tests below exercise. Distinct names keep evict(name)
// targeted at the test's own entries.
Scenario owned_scenario(std::uint64_t seed, const std::string& name) {
  auto dataset = std::make_shared<core::Dataset>(small_dataset(seed));
  dataset->name = name;
  Scenario scenario;
  scenario.name = name;
  scenario.dataset = std::move(dataset);
  return scenario;
}

TEST(ScenarioContextCache, StatsEvictAndClear) {
  auto& cache = ScenarioContextCache::instance();
  const auto scenario = owned_scenario(101, "cache-stats");
  const auto before = cache.stats();

  auto held = cache.acquire(scenario);
  const auto bytes = ScenarioContextCache::context_bytes(*held);
  EXPECT_GT(bytes, 0u);
  auto after_miss = cache.stats();
  EXPECT_EQ(after_miss.misses, before.misses + 1);
  EXPECT_EQ(after_miss.resident_bytes, before.resident_bytes + bytes);
  EXPECT_EQ(after_miss.resident_contexts, before.resident_contexts + 1);

  auto again = cache.acquire(scenario);
  EXPECT_EQ(again.get(), held.get());
  EXPECT_EQ(cache.stats().hits, after_miss.hits + 1);

  // Retention alone keeps the context resident: with every strong ref
  // dropped, the next acquire is still a hit, not a rebuild.
  held.reset();
  again.reset();
  const auto builds = cache.graphs_built();
  (void)cache.acquire(scenario);
  EXPECT_EQ(cache.graphs_built(), builds);

  // Explicit eviction releases the retained context; the next acquire
  // rebuilds.
  EXPECT_EQ(cache.evict("cache-stats"), 1u);
  auto after_evict = cache.stats();
  EXPECT_EQ(after_evict.evictions, after_miss.evictions + 1);
  EXPECT_EQ(after_evict.resident_bytes, before.resident_bytes);
  (void)cache.acquire(scenario);
  EXPECT_EQ(cache.graphs_built(), builds + 1);

  // clear() releases everything this test (and anything else) retained.
  cache.clear();
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_EQ(cache.evict("cache-stats"), 0u);
}

TEST(ScenarioContextCache, ConcurrentAcquireBuildsOnce) {
  auto& cache = ScenarioContextCache::instance();
  const auto scenario = owned_scenario(103, "cache-concurrent");
  const auto builds = cache.graphs_built();

  std::shared_ptr<const ScenarioContext> a;
  std::shared_ptr<const ScenarioContext> b;
  std::thread first([&] { a = cache.acquire(scenario); });
  std::thread second([&] { b = cache.acquire(scenario); });
  first.join();
  second.join();

  // Exactly one build between the two racing acquires, and both callers
  // see the same context instance.
  EXPECT_EQ(cache.graphs_built(), builds + 1);
  ASSERT_TRUE(a != nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.evict("cache-concurrent"), 1u);
}

TEST(ScenarioContextCache, ByteBudgetBoundsResidencyWithLruEviction) {
  auto& cache = ScenarioContextCache::instance();
  const auto old_budget = cache.budget_bytes();
  cache.clear();  // start from empty residency; budget asserts are exact.

  const auto sa = owned_scenario(105, "cache-lru-a");
  const auto sb = owned_scenario(106, "cache-lru-b");
  auto ca = cache.acquire(sa);
  auto cb = cache.acquire(sb);
  const auto bytes_a = ScenarioContextCache::context_bytes(*ca);
  const auto bytes_b = ScenarioContextCache::context_bytes(*cb);
  ASSERT_LE(bytes_a + bytes_b, cache.budget_bytes());
  EXPECT_EQ(cache.stats().resident_bytes, bytes_a + bytes_b);

  // Touch a, then shrink the budget below a+b: the LRU victim must be b.
  (void)cache.acquire(sa);
  const auto evictions = cache.stats().evictions;
  cache.set_budget_bytes(bytes_a + bytes_b - 1);
  auto squeezed = cache.stats();
  EXPECT_LE(squeezed.resident_bytes, squeezed.budget_bytes);
  EXPECT_EQ(squeezed.resident_bytes, bytes_a);
  EXPECT_EQ(squeezed.evictions, evictions + 1);

  // With strong refs dropped: a (retained) is still a hit; b (evicted,
  // weak expired) rebuilds — and retaining the rebuilt b displaces a,
  // keeping residency under the budget at every step.
  ca.reset();
  cb.reset();
  const auto builds = cache.graphs_built();
  (void)cache.acquire(sa);
  EXPECT_EQ(cache.graphs_built(), builds);
  (void)cache.acquire(sb);
  EXPECT_EQ(cache.graphs_built(), builds + 1);
  EXPECT_LE(cache.stats().resident_bytes, cache.budget_bytes());

  // A context larger than the whole budget is served but never retained.
  cache.set_budget_bytes(1);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  const auto sc = owned_scenario(107, "cache-lru-c");
  const auto cc = cache.acquire(sc);
  EXPECT_TRUE(cc != nullptr);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);

  cache.set_budget_bytes(old_budget);
}

TEST(ScenarioContextCache, ObservationSnapshotsAreAccountedAndBudgeted) {
  auto& cache = ScenarioContextCache::instance();
  const auto old_budget = cache.budget_bytes();
  cache.clear();

  const auto scenario = owned_scenario(109, "cache-observations");
  auto context = cache.acquire(scenario);
  ASSERT_TRUE(context->observations != nullptr);
  const auto base_bytes = ScenarioContextCache::context_bytes(*context);
  EXPECT_EQ(cache.stats().resident_bytes, base_bytes);

  // Building a shared snapshot grows the context; whoever built it
  // re-accounts, and residency tracks the growth exactly.
  const auto fresh = forward::make_algorithm("FRESH");
  const auto [snapshot, built] = context->observations->get_or_build(
      fresh->shared_snapshot_key(), [&] {
        return fresh->build_shared_snapshot(*context->graph,
                                            context->dataset->trace);
      });
  ASSERT_TRUE(built);
  ASSERT_TRUE(snapshot != nullptr);
  EXPECT_GT(snapshot->bytes(), 0u);
  cache.reaccount(*context);
  const auto grown_bytes = ScenarioContextCache::context_bytes(*context);
  EXPECT_EQ(grown_bytes, base_bytes + context->observations->bytes());
  EXPECT_EQ(cache.stats().resident_bytes, grown_bytes);
  EXPECT_LE(cache.stats().resident_bytes, cache.stats().budget_bytes);

  // A second build under the same key is a hit — exactly one build per
  // key, and no double accounting.
  const auto [again, rebuilt] = context->observations->get_or_build(
      fresh->shared_snapshot_key(),
      [&]() -> ObservationStore::SnapshotPtr {
        ADD_FAILURE() << "snapshot rebuilt despite cache hit";
        return nullptr;
      });
  EXPECT_FALSE(rebuilt);
  EXPECT_EQ(again.get(), snapshot.get());

  // A distinct key (PRoPHET's parameterized predictabilities) builds its
  // own snapshot and grows the accounting again.
  const auto prophet = forward::make_algorithm("PRoPHET");
  const auto [prophet_snapshot, prophet_built] =
      context->observations->get_or_build(
          prophet->shared_snapshot_key(), [&] {
            return prophet->build_shared_snapshot(*context->graph,
                                                  context->dataset->trace);
          });
  EXPECT_TRUE(prophet_built);
  EXPECT_TRUE(prophet_snapshot != nullptr);
  cache.reaccount(*context);
  EXPECT_GT(ScenarioContextCache::context_bytes(*context), grown_bytes);
  EXPECT_EQ(cache.stats().resident_bytes,
            ScenarioContextCache::context_bytes(*context));
  EXPECT_LE(cache.stats().resident_bytes, cache.stats().budget_bytes);

  // Snapshots count against the byte budget like everything else: shrink
  // the budget below the grown context and re-account — the entry is
  // released (residency never exceeds the budget), while live holders
  // keep both context and snapshots valid.
  cache.set_budget_bytes(ScenarioContextCache::context_bytes(*context) - 1);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  EXPECT_LE(cache.stats().resident_bytes, cache.stats().budget_bytes);
  EXPECT_GT(snapshot->bytes(), 0u);

  cache.set_budget_bytes(old_budget);
  (void)cache.evict("cache-observations");
}

// A sweep with the default shared-observation mode leaves the built
// snapshots on the scenario's cached context, so a second sweep (or a
// resident service's next request) pays zero snapshot builds.
TEST(Sweep, SharedSnapshotsPersistOnCachedContext) {
  const auto scenario = make_scenario_by_name("conference_small");
  auto context = ScenarioContextCache::instance().acquire(scenario);
  PlanConfig config;
  config.runs = 1;
  config.master_seed = 3;
  config.message_rate = 0.005;
  const auto plan = make_plan({scenario}, {"FRESH"}, config);
  (void)run_sweep(plan, {});
  const auto bytes_after_first = context->observations->bytes();
  EXPECT_GT(bytes_after_first, 0u);
  (void)run_sweep(plan, {});
  EXPECT_EQ(context->observations->bytes(), bytes_after_first);
}

// The engine-level coalescing lemma psn_serve's request batching rests
// on: per-run seeds never see the algorithm index, so a single-scenario
// plan with a merged algorithm axis produces per-algorithm cells
// bit-identical to standalone single-algorithm plans.
TEST(Sweep, MergedAlgorithmAxisMatchesStandalonePlans) {
  const auto ds = small_dataset(41);
  PlanConfig config;
  config.runs = 2;
  config.message_rate = 0.02;
  const std::vector<std::string> algorithms = {"Epidemic", "FRESH", "Greedy"};

  ThreadPool pool(4);
  SweepOptions options;
  options.pool = &pool;
  const auto merged =
      run_sweep(make_plan({make_scenario(ds)}, algorithms, config), options);

  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    const auto standalone = run_sweep(
        make_plan({make_scenario(ds)}, {algorithms[i]}, config), options);
    const auto& a = merged.cell(0, i);
    const auto& b = standalone.cell(0, 0);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.overall.success_rate, b.overall.success_rate);
    EXPECT_EQ(a.overall.average_delay, b.overall.average_delay);
    EXPECT_EQ(a.overall.average_hops, b.overall.average_hops);
    EXPECT_EQ(a.overall.delivered, b.overall.delivered);
    EXPECT_EQ(a.cost_per_message, b.cost_per_message);
    EXPECT_EQ(a.delays, b.delays);
    EXPECT_EQ(a.messages_offered, b.messages_offered);
  }
}

// The shared-pool hook behind psn_serve: running several sweeps on one
// caller-owned pool produces the same cells as the serial sweep.
TEST(Sweep, CallerOwnedPoolMatchesSerialSweep) {
  const auto ds = small_dataset(43);
  PlanConfig config;
  config.runs = 2;
  config.message_rate = 0.02;
  const auto plan =
      make_plan({make_scenario(ds)}, {"Epidemic", "FRESH"}, config);

  const auto expected = run_sweep(plan);

  ThreadPool shared(3);
  SweepOptions shared_pool;
  shared_pool.pool = &shared;
  for (int round = 0; round < 2; ++round)
    expect_cells_identical(expected, run_sweep(plan, shared_pool));
}

// Runs `sweep` as a task of a fresh heap-allocated pool of `threads`
// workers and returns its result. A sweep that deadlocks fails the test
// instead of hanging it: after the bounded wait the pool, with its stuck
// worker, is leaked on purpose (destroying it would join that worker).
template <typename Result>
std::optional<Result> run_in_pool_task(
    std::size_t threads, std::function<Result(ThreadPool&)> sweep) {
  auto* pool = new ThreadPool(threads);
  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> future = promise->get_future();
  pool->submit([pool, promise, sweep = std::move(sweep)] {
    try {
      promise->set_value(sweep(*pool));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  if (future.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << "sweep entered from a task of its own " << threads
                  << "-thread pool did not return (deadlock)";
    return std::nullopt;  // `pool` leaked: see above.
  }
  delete pool;
  return future.get();
}

// Small plans of the path and model sweeps, and bit-identical checks of
// their cells, shared by the executor tests below.
PathSweepPlan small_path_plan(const core::Dataset& ds) {
  PathSweepPlan plan;
  plan.scenarios = {make_scenario(ds)};
  plan.config.messages = 12;
  plan.config.k = 40;
  return plan;
}

ModelSweepPlan small_model_plan() {
  ModelSweepPlan plan;
  ModelScenario scenario;
  scenario.name = "nested";
  scenario.jump.population = 200;
  scenario.jump.t_end = 60.0;
  scenario.jump.samples = 5;
  scenario.mc.population = 60;
  scenario.mc.max_rate = 0.15;
  scenario.mc.t_end = 800.0;
  scenario.mc.k = 50;
  scenario.mc.messages = 12;
  plan.scenarios = {scenario};
  plan.config.jump_replicas = 3;
  return plan;
}

void expect_path_cells_identical(const PathSweepResult& want,
                                 const PathSweepResult& have) {
  const auto& want_records = want.cells.at(0).records;
  const auto& have_records = have.cells.at(0).records;
  ASSERT_EQ(have_records.size(), want_records.size());
  for (std::size_t m = 0; m < want_records.size(); ++m) {
    const auto& a = want_records[m];
    const auto& b = have_records[m];
    EXPECT_EQ(b.delivered, a.delivered) << m;
    EXPECT_EQ(b.exploded, a.exploded) << m;
    EXPECT_EQ(b.optimal_duration, a.optimal_duration) << m;
    EXPECT_EQ(b.time_to_explosion, a.time_to_explosion) << m;
    EXPECT_EQ(b.total_paths, a.total_paths) << m;
  }
}

void expect_model_cells_identical(const ModelSweepResult& want_result,
                                  const ModelSweepResult& have_result) {
  const ModelCell& want = want_result.cells.at(0);
  const ModelCell& have = have_result.cells.at(0);
  EXPECT_EQ(have.jump_events, want.jump_events);
  ASSERT_EQ(have.trajectory.size(), want.trajectory.size());
  for (std::size_t i = 0; i < want.trajectory.size(); ++i)
    EXPECT_EQ(have.trajectory[i].mean_paths, want.trajectory[i].mean_paths);
  ASSERT_EQ(have.messages.size(), want.messages.size());
  for (std::size_t m = 0; m < want.messages.size(); ++m) {
    EXPECT_EQ(have.messages[m].delivered, want.messages[m].delivered);
    EXPECT_EQ(have.messages[m].exploded, want.messages[m].exploded);
  }
  EXPECT_EQ(have.quadrants.delivered, want.quadrants.delivered);
}

// The executor rule of all three sweeps: the pool is the one setting,
// and a null pool runs every phase on the calling thread. Serial results
// are bit-identical to the same plans on a 4-thread pool.
TEST(Sweep, NullPoolMatchesFourThreadPool) {
  const auto ds = small_dataset(53);
  PlanConfig config;
  config.runs = 2;
  config.message_rate = 0.02;
  const auto plan = make_plan({make_scenario(ds)},
                              {"Epidemic", "FRESH", "PRoPHET"}, config);
  const PathSweepPlan path_plan = small_path_plan(ds);
  const ModelSweepPlan model_plan = small_model_plan();

  ThreadPool pool(4);
  SweepOptions options;
  options.pool = &pool;
  expect_cells_identical(run_sweep(plan), run_sweep(plan, options));
  PathSweepOptions path_options;
  path_options.pool = &pool;
  expect_path_cells_identical(run_path_sweep(path_plan),
                              run_path_sweep(path_plan, path_options));
  ModelSweepOptions model_options;
  model_options.pool = &pool;
  expect_model_cells_identical(run_model_sweep(model_plan),
                               run_model_sweep(model_plan, model_options));
}

// Every sweep may be entered from a task of the pool it runs on (each
// phase waits for its own shards only, and the entering worker takes a
// lane), and returns exactly what a top-level call returns.
TEST(Sweep, EverySweepRunsFromATaskOfItsOwnPool) {
  const auto ds = small_dataset(47);
  PlanConfig config;
  config.runs = 2;
  config.message_rate = 0.02;
  const auto plan =
      make_plan({make_scenario(ds)}, {"Epidemic", "PRoPHET"}, config);
  const PathSweepPlan path_plan = small_path_plan(ds);
  const ModelSweepPlan model_plan = small_model_plan();

  const SweepResult expected = run_sweep(plan);
  const PathSweepResult expected_paths = run_path_sweep(path_plan);
  const ModelSweepResult expected_model = run_model_sweep(model_plan);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const auto got = run_in_pool_task<SweepResult>(
        threads, [&](ThreadPool& pool) {
          SweepOptions options;
          options.pool = &pool;
          return run_sweep(plan, options);
        });
    if (got) expect_cells_identical(expected, *got);

    const auto paths = run_in_pool_task<PathSweepResult>(
        threads, [&](ThreadPool& pool) {
          PathSweepOptions options;
          options.pool = &pool;
          return run_path_sweep(path_plan, options);
        });
    if (paths) expect_path_cells_identical(expected_paths, *paths);

    const auto model = run_in_pool_task<ModelSweepResult>(
        threads, [&](ThreadPool& pool) {
          ModelSweepOptions options;
          options.pool = &pool;
          return run_model_sweep(model_plan, options);
        });
    if (model) expect_model_cells_identical(expected_model, *model);
  }
}

}  // namespace
}  // namespace psn::engine
