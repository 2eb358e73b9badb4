// Tests for the engine's §5 model sweep: the SplitMix64 substream
// lattice, the scale-tier registry (every tier run end to end, model_100k
// included), bit-identical cells serially and at 8 threads, the
// serial-replica and single-stream oracles, workspace-reuse equivalence,
// and the NaN-safe quadrant summary.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "psn/core/quadrant.hpp"
#include "psn/engine/model_sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/model/heterogeneous_mc.hpp"
#include "psn/model/jump_simulator.hpp"
#include "psn/model/workspace.hpp"
#include "psn/stats/summary.hpp"
#include "psn/util/rng.hpp"

namespace psn::engine {
namespace {

// EXPECT_DOUBLE_EQ that treats two NaNs as equal (the MC sentinel).
void expect_same_double(double lhs, double rhs) {
  if (std::isnan(lhs))
    EXPECT_TRUE(std::isnan(rhs));
  else
    EXPECT_DOUBLE_EQ(lhs, rhs);
}

void expect_cells_identical(const ModelCell& lhs, const ModelCell& rhs) {
  EXPECT_EQ(lhs.scenario, rhs.scenario);
  EXPECT_EQ(lhs.population, rhs.population);
  EXPECT_EQ(lhs.jump_replicas, rhs.jump_replicas);
  EXPECT_EQ(lhs.jump_events, rhs.jump_events);
  ASSERT_EQ(lhs.trajectory.size(), rhs.trajectory.size());
  for (std::size_t i = 0; i < lhs.trajectory.size(); ++i) {
    const EnsemblePoint& a = lhs.trajectory[i];
    const EnsemblePoint& b = rhs.trajectory[i];
    EXPECT_DOUBLE_EQ(a.t, b.t);
    EXPECT_DOUBLE_EQ(a.mean_paths, b.mean_paths);
    EXPECT_DOUBLE_EQ(a.var_mean_paths, b.var_mean_paths);
    EXPECT_DOUBLE_EQ(a.mean_variance_paths, b.mean_variance_paths);
    ASSERT_EQ(a.mean_low_density.size(), b.mean_low_density.size());
    for (std::size_t k = 0; k < a.mean_low_density.size(); ++k)
      EXPECT_DOUBLE_EQ(a.mean_low_density[k], b.mean_low_density[k]);
  }
  ASSERT_EQ(lhs.messages.size(), rhs.messages.size());
  for (std::size_t m = 0; m < lhs.messages.size(); ++m) {
    EXPECT_EQ(lhs.messages[m].type, rhs.messages[m].type);
    EXPECT_EQ(lhs.messages[m].delivered, rhs.messages[m].delivered);
    EXPECT_EQ(lhs.messages[m].exploded, rhs.messages[m].exploded);
    expect_same_double(lhs.messages[m].t1, rhs.messages[m].t1);
    expect_same_double(lhs.messages[m].te, rhs.messages[m].te);
  }
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_EQ(lhs.quadrants.messages[q], rhs.quadrants.messages[q]);
    EXPECT_EQ(lhs.quadrants.delivered[q], rhs.quadrants.delivered[q]);
    EXPECT_EQ(lhs.quadrants.exploded[q], rhs.quadrants.exploded[q]);
    EXPECT_EQ(lhs.quadrants.t1[q].count(), rhs.quadrants.t1[q].count());
    if (lhs.quadrants.t1[q].count() > 0) {
      EXPECT_DOUBLE_EQ(lhs.quadrants.t1[q].mean(),
                       rhs.quadrants.t1[q].mean());
    }
    EXPECT_EQ(lhs.quadrants.te[q].count(), rhs.quadrants.te[q].count());
    if (lhs.quadrants.te[q].count() > 0) {
      EXPECT_DOUBLE_EQ(lhs.quadrants.te[q].mean(),
                       rhs.quadrants.te[q].mean());
    }
  }
}

// A small but non-trivial plan exercising both halves of a cell.
ModelSweepPlan small_plan() {
  ModelSweepPlan plan;
  ModelScenario scenario;
  scenario.name = "sweep-test";
  scenario.jump.population = 500;
  scenario.jump.lambda = 0.05;
  scenario.jump.t_end = 80.0;
  scenario.jump.samples = 9;
  scenario.mc.population = 80;
  scenario.mc.max_rate = 0.15;
  scenario.mc.t_end = 1500.0;
  scenario.mc.k = 100;
  scenario.mc.messages = 50;
  plan.scenarios = {scenario};
  plan.config.jump_replicas = 6;
  plan.config.master_seed = 21;
  return plan;
}

TEST(ModelSubstream, MatchesTheSplitMix64Sequence) {
  // model_substream_seed(seed, slot) is the output of draw number `slot`
  // of the SplitMix64 sequence from `seed` — O(1) slot addressing must
  // agree with sequential stepping.
  const std::uint64_t seed = 0x243f6a8885a308d3ULL;
  std::uint64_t state = seed;
  for (std::uint64_t slot = 0; slot < 32; ++slot) {
    const std::uint64_t sequential = util::splitmix64(state);
    EXPECT_EQ(model_substream_seed(seed, slot), sequential) << slot;
  }
}

TEST(ModelSubstream, LatticeSeedsAreDistinct) {
  // The role salts must keep the jump / population / pair / message
  // lattices apart within a scenario and across scenarios.
  std::vector<std::uint64_t> seeds;
  for (std::size_t s = 0; s < 3; ++s) {
    seeds.push_back(model_mc_population_seed(7, s));
    seeds.push_back(model_mc_pair_seed(7, s));
    for (std::size_t i = 0; i < 4; ++i) {
      seeds.push_back(model_jump_replica_seed(7, s, i));
      seeds.push_back(model_mc_message_seed(7, s, i));
    }
  }
  for (std::size_t i = 0; i < seeds.size(); ++i)
    for (std::size_t j = i + 1; j < seeds.size(); ++j)
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
}

TEST(ModelScenarioRegistry, TiersSpanTheScaleLadder) {
  const auto names = model_scenario_names();
  ASSERT_EQ(names.size(), 4u);
  std::size_t previous = 0;
  for (const auto& name : names) {
    const ModelScenario scenario = make_model_scenario(name);
    EXPECT_EQ(scenario.name, name);
    EXPECT_GT(scenario.jump.population, previous);
    EXPECT_EQ(scenario.jump.population, scenario.mc.population);
    EXPECT_GT(scenario.mc.messages, 0u);
    previous = scenario.jump.population;
  }
  EXPECT_EQ(make_model_scenario("model_100").jump.population, 100u);
  EXPECT_EQ(make_model_scenario("model_100k").jump.population, 100000u);
}

TEST(ModelScenarioRegistry, UnknownNameThrowsListingNames) {
  try {
    (void)make_model_scenario("model_9000");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("model_9000"), std::string::npos);
    for (const auto& name : model_scenario_names())
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
}

// Every registered tier runs end to end through the sweep, model_100k
// (N = 100 000) included, with one jump replica and one MC message each
// so the whole ladder takes about half a second in Release.
TEST(ModelScenarioRegistry, EveryTierRunsEndToEnd) {
  for (const auto& name : model_scenario_names()) {
    ModelSweepPlan plan;
    plan.scenarios = {make_model_scenario(name)};
    plan.scenarios[0].mc.messages = 1;
    plan.config.jump_replicas = 1;
    const auto result = run_model_sweep(plan);
    ASSERT_EQ(result.cells.size(), 1u) << name;
    EXPECT_EQ(result.cells[0].population,
              plan.scenarios[0].jump.population)
        << name;
    EXPECT_GT(result.cells[0].jump_events, 0u) << name;
    EXPECT_EQ(result.cells[0].messages.size(), 1u) << name;
  }
}

TEST(ModelSweep, RejectsBadPlans) {
  ModelSweepPlan plan;
  EXPECT_THROW((void)run_model_sweep(plan), std::invalid_argument);
  plan = small_plan();
  plan.scenarios[0].jump.population = 1;
  EXPECT_THROW((void)run_model_sweep(plan), std::invalid_argument);
  plan = small_plan();
  plan.scenarios[0].mc.population = 1;
  EXPECT_THROW((void)run_model_sweep(plan), std::invalid_argument);
  // A disabled half is not validated: population 1 is fine when unused.
  plan.scenarios[0].mc.messages = 0;
  EXPECT_NO_THROW((void)run_model_sweep(plan));
}

// The headline guarantee: bit-identical cells serially and at 8 threads.
TEST(ModelSweep, BitIdenticalAcrossThreadCounts) {
  const ModelSweepPlan plan = small_plan();
  ModelSweepOptions serial;  // no pool: every phase on this thread.
  ThreadPool pool(8);
  ModelSweepOptions wide;
  wide.pool = &pool;
  const auto lhs = run_model_sweep(plan, serial);
  const auto rhs = run_model_sweep(plan, wide);
  EXPECT_EQ(lhs.total_replicas, 6u);
  EXPECT_EQ(lhs.total_messages, 50u);
  ASSERT_EQ(lhs.cells.size(), 1u);
  ASSERT_EQ(rhs.cells.size(), 1u);
  expect_cells_identical(lhs.cells[0], rhs.cells[0]);

  // Something non-trivial actually happened on both halves.
  std::size_t delivered = 0;
  for (const auto& message : lhs.cells[0].messages)
    delivered += message.delivered;
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(lhs.cells[0].jump_events, 0u);
  EXPECT_GT(lhs.cells[0].trajectory.back().mean_paths, 0.0);
}

// The serial-replica oracle: re-running every jump slot serially with
// its exposed substream seed and Welford-accumulating in slot order must
// reproduce the engine's ensemble bit for bit.
TEST(ModelSweep, JumpEnsembleMatchesSerialReplicaRuns) {
  const ModelSweepPlan plan = small_plan();
  const auto sweep = run_model_sweep(plan);
  const auto& trajectory = sweep.cells[0].trajectory;

  std::vector<std::vector<model::JumpSample>> runs;
  for (std::size_t r = 0; r < plan.config.jump_replicas; ++r) {
    model::JumpSimConfig config = plan.scenarios[0].jump;
    config.seed = model_jump_replica_seed(plan.config.master_seed, 0, r);
    runs.push_back(model::run_jump_simulation(config));
  }
  ASSERT_EQ(trajectory.size(), runs[0].size());
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    stats::Accumulator mean_acc;
    double variance_sum = 0.0;
    for (const auto& run : runs) {
      mean_acc.add(run[i].mean_paths);
      variance_sum += run[i].variance_paths;
    }
    EXPECT_DOUBLE_EQ(trajectory[i].t, runs[0][i].t);
    EXPECT_DOUBLE_EQ(trajectory[i].mean_paths, mean_acc.mean());
    EXPECT_DOUBLE_EQ(trajectory[i].var_mean_paths, mean_acc.variance());
    EXPECT_DOUBLE_EQ(
        trajectory[i].mean_variance_paths,
        variance_sum / static_cast<double>(plan.config.jump_replicas));
  }
}

// The exact MC oracle: re-running every message slot serially with the
// exposed substream lattice (population, pair sample, per-message
// streams) must reproduce the engine's per-message results bit for bit —
// the MC analogue of JumpEnsembleMatchesSerialReplicaRuns.
TEST(ModelSweep, McMessagesMatchSerialSlotRecomposition) {
  const ModelSweepPlan plan = small_plan();
  const auto sweep = run_model_sweep(plan);
  const auto& messages = sweep.cells[0].messages;
  ASSERT_EQ(messages.size(), plan.scenarios[0].mc.messages);

  const model::HeterogeneousMcConfig& config = plan.scenarios[0].mc;
  const std::uint64_t master = plan.config.master_seed;
  util::Rng population_rng(model_mc_population_seed(master, 0));
  const auto population =
      model::make_heterogeneous_population(config, population_rng);
  util::Rng pair_rng(model_mc_pair_seed(master, 0));
  std::vector<double> counts;
  for (std::size_t m = 0; m < config.messages; ++m) {
    const auto src =
        static_cast<std::size_t>(pair_rng.uniform_index(config.population));
    auto dst = static_cast<std::size_t>(
        pair_rng.uniform_index(config.population - 1));
    if (dst >= src) ++dst;
    util::Rng message_rng(model_mc_message_seed(master, 0, m));
    const auto expected = model::simulate_mc_message(
        population, config, src, dst, message_rng, counts);
    EXPECT_EQ(messages[m].type, expected.type) << m;
    EXPECT_EQ(messages[m].delivered, expected.delivered) << m;
    EXPECT_EQ(messages[m].exploded, expected.exploded) << m;
    expect_same_double(messages[m].t1, expected.t1);
    expect_same_double(messages[m].te, expected.te);
  }
}

// The single-stream MC oracle: the engine's substreamed fan-out and the
// retained serial run_heterogeneous_mc are different samplers of the
// same experiment, so their per-quadrant statistics must agree within
// sampling tolerance (and the engine side must reproduce the paper's
// quadrant ordering). Seeding the serial run with the engine's
// population substream makes both draw the identical rate population —
// run_heterogeneous_mc's first config.population draws are exactly
// make_heterogeneous_population's — which removes the dominant
// between-population variance term and leaves message-sampling noise.
TEST(ModelSweep, McStatisticsMatchSerialSingleStreamOracle) {
  constexpr std::uint64_t kMasterSeed = 31;
  model::HeterogeneousMcConfig config;
  config.population = 100;
  config.max_rate = 0.12;
  config.t_end = 7200.0;
  config.k = 500;
  config.messages = 400;
  config.seed = model_mc_population_seed(kMasterSeed, 0);
  const auto serial =
      core::summarize_mc_by_quadrant(model::run_heterogeneous_mc(config));

  ModelSweepPlan plan;
  ModelScenario scenario;
  scenario.name = "mc-oracle";
  scenario.mc = config;
  plan.scenarios = {scenario};
  plan.config.jump_replicas = 0;
  plan.config.master_seed = kMasterSeed;
  const auto sweep = run_model_sweep(plan);
  const core::McQuadrantSummary& engine = sweep.cells[0].quadrants;

  for (std::size_t q = 0; q < 4; ++q) {
    ASSERT_GT(serial.t1[q].count(), 20u) << q;
    ASSERT_GT(engine.t1[q].count(), 20u) << q;
    // Independent streams: means agree within a generous sampling band.
    EXPECT_NEAR(engine.t1[q].mean(), serial.t1[q].mean(),
                0.35 * serial.t1[q].mean() + 10.0)
        << q;
    EXPECT_NEAR(engine.te[q].mean(), serial.te[q].mean(),
                0.35 * serial.te[q].mean() + 10.0)
        << q;
  }
  // §5.2 hypotheses on the engine side: T1 by source class, TE by
  // destination class.
  using trace::Quadrant;
  const auto t1_mean = [&](Quadrant q) {
    return engine.t1[static_cast<std::size_t>(q)].mean();
  };
  const auto te_mean = [&](Quadrant q) {
    return engine.te[static_cast<std::size_t>(q)].mean();
  };
  EXPECT_LT(t1_mean(Quadrant::in_in), t1_mean(Quadrant::out_in));
  EXPECT_LT(t1_mean(Quadrant::in_out), t1_mean(Quadrant::out_out));
  EXPECT_LT(te_mean(Quadrant::in_in), te_mean(Quadrant::in_out));
  EXPECT_LT(te_mean(Quadrant::out_in), te_mean(Quadrant::out_out));
}

// Workspaces must never influence results: a workspace dragged across
// runs of different populations reproduces fresh-workspace output bit
// for bit, for both kernels.
TEST(ModelSweep, WorkspaceReuseNeverChangesResults) {
  model::ModelWorkspace dirty;

  model::JumpSimConfig big;
  big.population = 400;
  big.t_end = 60.0;
  big.samples = 7;
  big.seed = 3;
  (void)model::run_jump_simulation(big, dirty);  // dirty the state at 400.

  model::JumpSimConfig small;
  small.population = 120;
  small.t_end = 40.0;
  small.samples = 5;
  small.seed = 9;
  const auto fresh = model::run_jump_simulation(small);
  const auto reused = model::run_jump_simulation(small, dirty);
  ASSERT_EQ(fresh.size(), reused.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_DOUBLE_EQ(fresh[i].t, reused[i].t);
    EXPECT_DOUBLE_EQ(fresh[i].mean_paths, reused[i].mean_paths);
    EXPECT_DOUBLE_EQ(fresh[i].variance_paths, reused[i].variance_paths);
    for (std::size_t k = 0; k < fresh[i].low_density.size(); ++k)
      EXPECT_DOUBLE_EQ(fresh[i].low_density[k], reused[i].low_density[k]);
  }

  model::HeterogeneousMcConfig config;
  config.population = 60;
  config.max_rate = 0.15;
  config.t_end = 800.0;
  config.k = 40;
  util::Rng population_rng(5);
  const auto population =
      model::make_heterogeneous_population(config, population_rng);
  std::vector<double> fresh_counts;
  std::vector<double> dirty_counts(4096, 123.0);  // oversized and poisoned.
  util::Rng rng_a(77);
  util::Rng rng_b(77);
  const auto a = model::simulate_mc_message(population, config, 3, 41, rng_a,
                                            fresh_counts);
  const auto b = model::simulate_mc_message(population, config, 3, 41, rng_b,
                                            dirty_counts);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.exploded, b.exploded);
  expect_same_double(a.t1, b.t1);
  expect_same_double(a.te, b.te);
}

// keep_messages only controls retention: the quadrant summary is
// identical with the raw results dropped.
TEST(ModelSweep, KeepMessagesOffDropsOnlyTheRawResults) {
  const ModelSweepPlan plan = small_plan();
  ModelSweepOptions keep;
  keep.keep_messages = true;
  ModelSweepOptions drop;
  drop.keep_messages = false;
  const auto kept = run_model_sweep(plan, keep);
  const auto dropped = run_model_sweep(plan, drop);
  EXPECT_EQ(kept.cells[0].messages.size(), 50u);
  EXPECT_TRUE(dropped.cells[0].messages.empty());
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_EQ(kept.cells[0].quadrants.messages[q],
              dropped.cells[0].quadrants.messages[q]);
    if (kept.cells[0].quadrants.t1[q].count() > 0) {
      EXPECT_DOUBLE_EQ(kept.cells[0].quadrants.t1[q].mean(),
                       dropped.cells[0].quadrants.t1[q].mean());
    }
  }
}

// Either half of a scenario can be disabled independently.
TEST(ModelSweep, HalvesAreIndependentlyOptional) {
  ModelSweepPlan plan = small_plan();
  plan.config.jump_replicas = 0;
  const auto mc_only = run_model_sweep(plan);
  // An MC-only cell reports the MC population, not the unused jump one.
  EXPECT_EQ(mc_only.cells[0].population, 80u);
  EXPECT_TRUE(mc_only.cells[0].trajectory.empty());
  EXPECT_EQ(mc_only.cells[0].jump_events, 0u);
  EXPECT_EQ(mc_only.total_replicas, 0u);
  EXPECT_EQ(mc_only.cells[0].messages.size(), 50u);

  plan = small_plan();
  plan.scenarios[0].mc.messages = 0;
  const auto jump_only = run_model_sweep(plan);
  EXPECT_TRUE(jump_only.cells[0].messages.empty());
  EXPECT_EQ(jump_only.total_messages, 0u);
  EXPECT_EQ(jump_only.cells[0].trajectory.size(), 9u);
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_EQ(jump_only.cells[0].quadrants.messages[q], 0u);
}

// Multi-scenario sweeps aggregate in plan order and stay deterministic
// at any thread count. (A scenario's substreams are keyed by its plan
// index, so reordering scenarios is, by design, a different experiment.)
TEST(ModelSweep, MultiScenarioDeterministicAcrossThreadCounts) {
  ModelSweepPlan plan = small_plan();
  ModelScenario second = plan.scenarios[0];
  second.name = "second";
  second.mc.messages = 20;
  second.jump.population = 300;
  plan.scenarios.push_back(second);

  ModelSweepOptions serial;  // no pool: every phase on this thread.
  ThreadPool pool(8);
  ModelSweepOptions wide;
  wide.pool = &pool;
  const auto lhs = run_model_sweep(plan, serial);
  const auto rhs = run_model_sweep(plan, wide);
  ASSERT_EQ(lhs.cells.size(), 2u);
  EXPECT_EQ(lhs.cells[0].scenario, "sweep-test");
  EXPECT_EQ(lhs.cells[1].scenario, "second");
  for (std::size_t c = 0; c < lhs.cells.size(); ++c)
    expect_cells_identical(lhs.cells[c], rhs.cells[c]);
}

// The NaN-safe quadrant summary: undelivered messages count toward
// `messages` but never touch the t1/te accumulators.
TEST(McQuadrantSummary, UndeliveredMessagesNeverTouchTheAccumulators) {
  std::vector<model::McMessageResult> results(3);
  results[0].type = trace::Quadrant::in_in;
  results[0].delivered = true;
  results[0].t1 = 12.0;
  results[1].type = trace::Quadrant::in_in;  // undelivered: NaN sentinels.
  results[2].type = trace::Quadrant::out_out;
  results[2].delivered = true;
  results[2].exploded = true;
  results[2].t1 = 30.0;
  results[2].te = 5.0;

  const auto summary = core::summarize_mc_by_quadrant(results);
  EXPECT_EQ(summary.messages[0], 2u);
  EXPECT_EQ(summary.delivered[0], 1u);
  EXPECT_EQ(summary.exploded[0], 0u);
  EXPECT_EQ(summary.t1[0].count(), 1u);
  EXPECT_DOUBLE_EQ(summary.t1[0].mean(), 12.0);  // 0-sentinels would halve it.
  EXPECT_EQ(summary.te[0].count(), 0u);
  EXPECT_EQ(summary.messages[3], 1u);
  EXPECT_EQ(summary.exploded[3], 1u);
  EXPECT_DOUBLE_EQ(summary.te[3].mean(), 5.0);
  EXPECT_EQ(summary.messages[1] + summary.messages[2], 0u);
}

}  // namespace
}  // namespace psn::engine
