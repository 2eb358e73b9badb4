// Tests for the engine's path-study sweep: determinism of the parallel
// message fan-out (bit-identical records serially and at 8 threads, with
// and without recorded paths), the sparse replay's active-step bound on a
// gap-engineered trace, pinned digests of the enumerations themselves,
// the enumerator workspace's byte ceiling, and the sweep's
// ScenarioContextCache probe. The dense/sparse enumeration oracle runs at
// enumerator level (paths_test).

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset_digest.hpp"
#include "psn/core/dataset.hpp"
#include "psn/core/workload.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/synth/conference.hpp"
#include "psn/trace/trace_stats.hpp"

namespace psn::engine {
namespace {

using trace::Contact;
using trace::ContactTrace;

// A small but non-trivial dataset: 24 nodes, 45 minutes, heterogeneous
// weights.
core::Dataset small_dataset(std::uint64_t seed) {
  synth::ConferenceConfig config;
  config.mobile_nodes = 24;
  config.stationary_nodes = 0;
  config.t_max = 2700.0;
  config.mean_node_rate = 0.08;
  config.gaps = synth::GapModel::exponential;
  config.scan_interval = 0.0;
  config.seed = seed;
  auto dataset = core::make_dataset("path-sweep-test",
                                    synth::generate_conference(config));
  dataset.message_horizon = 1800.0;
  return dataset;
}

// A trace whose contacts cluster into two bursts separated by a huge
// contact-free gap: thousands of discretized steps, a handful active.
core::Dataset gap_dataset() {
  std::vector<Contact> cs;
  const double bursts[] = {0.0, 9000.0};
  for (const double base : bursts) {
    cs.push_back(Contact::make(0, 1, base + 0.0, base + 15.0));
    cs.push_back(Contact::make(1, 2, base + 10.0, base + 25.0));
    cs.push_back(Contact::make(2, 3, base + 20.0, base + 35.0));
    cs.push_back(Contact::make(0, 4, base + 5.0, base + 12.0));
    cs.push_back(Contact::make(4, 3, base + 30.0, base + 41.0));
  }
  core::Dataset dataset;
  dataset.name = "gap-engineered";
  dataset.trace = ContactTrace(std::move(cs), 5, 18000.0);
  dataset.rates = trace::classify_rates(dataset.trace);
  dataset.message_horizon = 9600.0;
  return dataset;
}

// Bit-identical delivery comparison (no tolerance on doubles), plus the
// effort counters.
void expect_results_identical(const paths::EnumerationResult& lhs,
                              const paths::EnumerationResult& rhs) {
  EXPECT_EQ(lhs.source, rhs.source);
  EXPECT_EQ(lhs.destination, rhs.destination);
  EXPECT_EQ(lhs.t_start, rhs.t_start);
  EXPECT_EQ(lhs.reached_k, rhs.reached_k);
  ASSERT_EQ(lhs.deliveries.size(), rhs.deliveries.size());
  for (std::size_t i = 0; i < lhs.deliveries.size(); ++i) {
    EXPECT_EQ(lhs.deliveries[i].arrival, rhs.deliveries[i].arrival);
    EXPECT_EQ(lhs.deliveries[i].step, rhs.deliveries[i].step);
    EXPECT_EQ(lhs.deliveries[i].hops, rhs.deliveries[i].hops);
    EXPECT_EQ(lhs.deliveries[i].count, rhs.deliveries[i].count);
    // Representative paths (when recorded) must match node for node —
    // the fig14/15 reproducibility claim rests on this.
    EXPECT_EQ(lhs.deliveries[i].path.valid(), rhs.deliveries[i].path.valid());
    if (lhs.deliveries[i].path.valid() && rhs.deliveries[i].path.valid()) {
      EXPECT_EQ(lhs.deliveries[i].path.sequence(),
                rhs.deliveries[i].path.sequence());
    }
  }
  EXPECT_EQ(lhs.effort.steps_replayed, rhs.effort.steps_replayed);
  EXPECT_EQ(lhs.effort.contact_events, rhs.effort.contact_events);
  EXPECT_EQ(lhs.effort.peak_stored_paths, rhs.effort.peak_stored_paths);
  EXPECT_EQ(lhs.effort.truncated_candidates,
            rhs.effort.truncated_candidates);
}

void expect_records_identical(const paths::ExplosionRecord& lhs,
                              const paths::ExplosionRecord& rhs) {
  EXPECT_EQ(lhs.source, rhs.source);
  EXPECT_EQ(lhs.destination, rhs.destination);
  EXPECT_EQ(lhs.t_start, rhs.t_start);
  EXPECT_EQ(lhs.delivered, rhs.delivered);
  EXPECT_EQ(lhs.exploded, rhs.exploded);
  EXPECT_EQ(lhs.optimal_duration, rhs.optimal_duration);
  EXPECT_EQ(lhs.time_to_explosion, rhs.time_to_explosion);
  EXPECT_EQ(lhs.total_paths, rhs.total_paths);
  ASSERT_EQ(lhs.growth.size(), rhs.growth.size());
  for (std::size_t i = 0; i < lhs.growth.size(); ++i) {
    EXPECT_EQ(lhs.growth[i].offset, rhs.growth[i].offset);
    EXPECT_EQ(lhs.growth[i].cumulative, rhs.growth[i].cumulative);
  }
}

void expect_sweeps_identical(const PathSweepResult& lhs,
                             const PathSweepResult& rhs) {
  ASSERT_EQ(lhs.cells.size(), rhs.cells.size());
  for (std::size_t c = 0; c < lhs.cells.size(); ++c) {
    const auto& a = lhs.cells[c];
    const auto& b = rhs.cells[c];
    EXPECT_EQ(a.scenario, b.scenario);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i)
      expect_records_identical(a.records[i], b.records[i]);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i)
      expect_results_identical(a.results[i], b.results[i]);
  }
}

TEST(PathSweep, RejectsBadPlans) {
  PathSweepPlan plan;
  EXPECT_THROW((void)run_path_sweep(plan), std::invalid_argument);
  const auto ds = small_dataset(3);
  plan.scenarios = {make_scenario(ds)};
  plan.config.messages = 0;
  EXPECT_THROW((void)run_path_sweep(plan), std::invalid_argument);
}

// The headline guarantee: bit-identical per-message outcomes serially and
// at 8 threads, with raw results retained.
TEST(PathSweep, BitIdenticalAcrossThreadCounts) {
  const auto ds = small_dataset(41);
  PathSweepPlan plan;
  plan.scenarios = {make_scenario(ds)};
  plan.config.messages = 40;
  plan.config.k = 60;
  plan.config.seed = 9;

  PathSweepOptions serial;  // no pool: every phase on this thread.
  ThreadPool pool(8);
  PathSweepOptions wide;
  wide.pool = &pool;
  const auto lhs = run_path_sweep(plan, serial);
  const auto rhs = run_path_sweep(plan, wide);
  EXPECT_EQ(lhs.total_messages, 40u);
  expect_sweeps_identical(lhs, rhs);

  // Something non-trivial actually happened.
  std::size_t delivered = 0;
  for (const auto& rec : lhs.cells[0].records) delivered += rec.delivered;
  EXPECT_GT(delivered, 0u);
}

// The paper-scale scenario, with and without recorded paths: serial and
// 8-thread sweeps agree on every delivery, representative path and effort
// count.
TEST(PathSweep, ConferenceMatrixBitIdenticalAcrossThreadCounts) {
  const auto scenario = make_scenario_by_name("conference_small");
  for (const bool record_paths : {false, true}) {
    PathSweepPlan plan;
    plan.scenarios = {scenario};
    plan.config.messages = 10;
    plan.config.k = 120;
    plan.config.seed = 42;
    plan.config.record_paths = record_paths;
    PathSweepOptions serial;  // no pool: every phase on this thread.
    ThreadPool pool(8);
    PathSweepOptions wide;
    wide.pool = &pool;
    expect_sweeps_identical(run_path_sweep(plan, serial),
                            run_path_sweep(plan, wide));
  }
}

// Gap-engineered trace: most steps are contact-free; the sparse replay
// must skip them, so its per-message step work is bounded by the number
// of active steps, at any thread count.
TEST(PathSweep, SparseReplayBoundedByActiveStepsAcrossGaps) {
  const auto ds = gap_dataset();
  const graph::SpaceTimeGraph probe_graph(ds.trace, 10.0);
  ASSERT_GT(probe_graph.num_steps(), 1000u);
  ASSERT_LT(probe_graph.num_active_steps(), 20u);

  PathSweepPlan plan;
  plan.scenarios = {make_scenario(ds)};
  plan.config.messages = 30;
  plan.config.k = 50;
  plan.config.seed = 5;

  PathSweepOptions serial;  // no pool: every phase on this thread.
  ThreadPool pool(8);
  PathSweepOptions wide;
  wide.pool = &pool;
  const auto timeline = run_path_sweep(plan, wide);
  expect_sweeps_identical(run_path_sweep(plan, serial), timeline);

  std::size_t delivered = 0;
  for (const auto& rec : timeline.cells[0].records) {
    EXPECT_LE(rec.effort.steps_replayed, probe_graph.num_active_steps());
    delivered += rec.delivered;
  }
  EXPECT_GT(delivered, 0u);
}

// FNV-1a over every retained result of a sweep, in slot order: each
// delivery's arrival bits, step, hops and count, each recorded path's
// (node, step) sequence, and the four effort counters.
std::uint64_t results_digest(const PathSweepResult& sweep) {
  std::uint64_t h = kFnv1aBasis;
  const auto mix = [&h](std::uint64_t v) { fnv1a_mix(h, v); };
  for (const PathCell& cell : sweep.cells) {
    for (const paths::EnumerationResult& r : cell.results) {
      mix(r.deliveries.size());
      for (const paths::Delivery& d : r.deliveries) {
        mix(std::bit_cast<std::uint64_t>(d.arrival));
        mix(d.step);
        mix(d.hops);
        mix(d.count);
        if (!d.path.valid()) continue;
        const auto sequence = d.path.sequence();
        mix(sequence.size());
        for (const auto& [node, step] : sequence) {
          mix(node);
          mix(step);
        }
      }
      mix(r.effort.steps_replayed);
      mix(r.effort.contact_events);
      mix(r.effort.peak_stored_paths);
      mix(r.effort.truncated_candidates);
    }
  }
  return h;
}

// Which path classes survive each node's k-shortest trim decides every
// later delivery, and every other check of the trim runs the same code
// on both sides. These digests pin the enumerator's output itself: the
// paper's k = 2000 on conference_small, a small k with recorded paths
// (so trims cut inside hop levels and representatives must follow their
// classes), and campus_512's W = 8 member words per class.
TEST(PathSweep, EnumerationDigestsArePinned) {
  struct Pin {
    const char* scenario;
    std::size_t k;
    bool record_paths;
    std::size_t messages;
    std::uint64_t digest;
  };
  constexpr Pin kPins[] = {
      {"conference_small", 2000, false, 24, 0x607d76ea6fe053beull},
      {"conference_small", 64, true, 60, 0x2aa901badda4033bull},
      {"campus_512", 256, false, 8, 0x534ce86878996d29ull},
  };
  ThreadPool pool(4);
  PathSweepOptions options;
  options.pool = &pool;
  for (const Pin& pin : kPins) {
    PathSweepPlan plan;
    plan.scenarios = {make_scenario_by_name(pin.scenario)};
    plan.config.messages = pin.messages;
    plan.config.k = pin.k;
    plan.config.record_paths = pin.record_paths;
    const auto sweep = run_path_sweep(plan, options);
    ASSERT_EQ(sweep.cells[0].results.size(), pin.messages);
    EXPECT_EQ(results_digest(sweep), pin.digest)
        << pin.scenario << " at k = " << pin.k << std::hex << ": 0x"
        << results_digest(sweep);
  }
}

// One warm enumerator workspace at the paper's k = 2000 on conference_small
// (98 nodes, W = 2 member words per pooled path class). The pools hold
// W words + a multiplicity + a hop count per class. A stored pool is
// trimmed to the k shortest as arrivals merge, so it never holds more
// than k classes, and a fresh pool holds at most the 2k new classes of
// one step: 23,883,888 B for this sample when the ceiling was set, which
// sits 5 % above that, so a return of the pre-trim growth (stored arrays
// of up to 3k classes, 36,805,712 B) fails here; the floor at half of it
// catches a workspace that stopped holding its pools. Capacities are a
// function of the graph, the sample and the standard library's growth
// policy, not of the machine.
TEST(PathSweep, ConferenceWorkspaceStaysUnderByteCeiling) {
  constexpr std::size_t kCeilingBytes = 25'078'000;
  const auto context = ScenarioContextCache::instance().acquire(
      make_scenario_by_name("conference_small"));
  const core::Dataset& ds = *context->dataset;
  paths::EnumeratorConfig config;
  config.k = 2000;
  config.record_paths = false;
  const paths::KPathEnumerator enumerator(*context->graph, config);
  paths::EnumeratorWorkspace workspace;
  for (const paths::MessageSpec& m : core::uniform_message_sample(
           ds.trace.num_nodes(), 12, ds.message_horizon, 7))
    (void)enumerator.enumerate(m.source, m.destination, m.t_start, workspace);
  EXPECT_LT(workspace.bytes(), kCeilingBytes);
  EXPECT_GT(workspace.bytes(), kCeilingBytes / 2);
}

// The build-count probe: run_path_sweep fetches its graph through the
// process-wide ScenarioContextCache — one build cold, zero builds while a
// caller holds the scenario's context (like engine_test's run_sweep probe).
TEST(PathSweep, FetchesGraphThroughScenarioContextCache) {
  const auto ds = small_dataset(47);
  auto& cache = ScenarioContextCache::instance();
  PathSweepPlan plan;
  plan.scenarios = {make_scenario(ds)};
  plan.config.messages = 10;
  plan.config.k = 30;

  // Cold cache: the sweep performs exactly one graph build.
  {
    const auto before = cache.graphs_built();
    ThreadPool pool(4);
    PathSweepOptions options;
    options.pool = &pool;
    (void)run_path_sweep(plan, options);
    EXPECT_EQ(cache.graphs_built(), before + 1);
  }

  // Held context: further sweeps at any thread count build nothing.
  {
    const auto held = cache.acquire(plan.scenarios[0]);
    const auto before = cache.graphs_built();
    for (const std::size_t threads : {1u, 8u}) {
      ThreadPool pool(threads);
      PathSweepOptions options;
      options.pool = &pool;
      (void)run_path_sweep(plan, options);
    }
    EXPECT_EQ(cache.graphs_built(), before);
  }
}

// Multi-scenario sweeps aggregate in plan order and stay deterministic.
TEST(PathSweep, MultiScenarioDeterministic) {
  const auto ds_a = small_dataset(59);
  const auto ds_b = gap_dataset();
  PathSweepPlan plan;
  plan.scenarios = {make_scenario(ds_a), make_scenario(ds_b)};
  plan.config.messages = 15;
  plan.config.k = 30;

  PathSweepOptions serial;  // no pool: every phase on this thread.
  ThreadPool pool(8);
  PathSweepOptions wide;
  wide.pool = &pool;
  const auto lhs = run_path_sweep(plan, serial);
  const auto rhs = run_path_sweep(plan, wide);
  ASSERT_EQ(lhs.cells.size(), 2u);
  EXPECT_EQ(lhs.cells[0].scenario, ds_a.name);
  EXPECT_EQ(lhs.cells[1].scenario, ds_b.name);
  expect_sweeps_identical(lhs, rhs);
}

}  // namespace
}  // namespace psn::engine
