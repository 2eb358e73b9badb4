// End-to-end integration: a miniature version of the paper's full pipeline
// on one synthetic conference window, asserting the headline qualitative
// claims. This is the repo's reproduction smoke test; the bench binaries
// print the full-size versions.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "psn/core/dataset.hpp"
#include "psn/core/quadrant.hpp"
#include "psn/engine/path_sweep.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/stats/cdf.hpp"
#include "psn/synth/conference.hpp"

namespace psn {
namespace {

core::Dataset mini_dataset() {
  synth::ConferenceConfig config;
  config.mobile_nodes = 40;
  config.stationary_nodes = 8;
  config.t_max = 2.0 * 3600.0;
  config.mean_node_rate = 0.02;
  config.scan_interval = 120.0;
  config.modulation = synth::default_conference_modulation(config.t_max);
  config.seed = 0xE2E;
  auto ds = core::make_dataset("mini-conference",
                               synth::generate_conference(config));
  ds.message_horizon = 1.0 * 3600.0;
  return ds;
}

TEST(Integration, PathExplosionHeadline) {
  // Claim (§4.2): once the first path arrives, many follow quickly — TE is
  // typically far smaller than T1's spread.
  const auto ds = mini_dataset();
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(ds)};
  plan.config.messages = 40;
  plan.config.k = 200;
  plan.config.seed = 3;
  const auto sweep = engine::run_path_sweep(plan);
  const auto& records = sweep.cells.front().records;

  const stats::EmpiricalCdf t1(paths::optimal_durations(records));
  const stats::EmpiricalCdf te(paths::times_to_explosion(records));
  ASSERT_GE(t1.size(), 20u);
  ASSERT_GE(te.size(), 10u);
  // Explosion concentration: the typical TE is much smaller than the
  // typical T1 spread (order-of-magnitude separation in the tails).
  EXPECT_LT(te.quantile(0.75), std::max(t1.quantile(0.9), 60.0));
  // Most exploded messages exploded fast.
  EXPECT_GE(te.at(150.0), 0.6);
}

TEST(Integration, QuadrantOrderingHeadline) {
  // Claim (§5.2): T1 keyed to the source class, TE to the destination
  // class. Check on pooled quadrant means with a generous sample.
  const auto ds = mini_dataset();
  engine::PathSweepPlan plan;
  plan.scenarios = {engine::make_scenario(ds)};
  plan.config.messages = 120;
  plan.config.k = 200;
  plan.config.seed = 11;
  const auto quadrants = core::group_by_quadrant(
      engine::run_path_sweep(plan).cells.front().records, ds.rates);

  double t1_sum[4] = {0, 0, 0, 0};
  std::size_t t1_n[4] = {0, 0, 0, 0};
  for (std::size_t q = 0; q < 4; ++q) {
    for (const auto& rec : quadrants.of(static_cast<trace::Quadrant>(q))) {
      if (!rec.delivered) continue;
      t1_sum[q] += rec.optimal_duration;
      ++t1_n[q];
    }
  }
  // in-in vs out-in and in-out vs out-out compare source classes with the
  // destination class held fixed.
  const auto mean = [&](std::size_t q) {
    return t1_n[q] ? t1_sum[q] / static_cast<double>(t1_n[q]) : 0.0;
  };
  if (t1_n[0] >= 5 && t1_n[2] >= 5) {
    EXPECT_LT(mean(0), mean(2) * 1.5);
  }
  if (t1_n[1] >= 5 && t1_n[3] >= 5) {
    EXPECT_LT(mean(1), mean(3) * 1.5);
  }
}

TEST(Integration, AlgorithmSimilarityHeadline) {
  // Claim (§6.2): the six algorithms' success rates cluster; Epidemic
  // bounds everyone; pair type matters more than algorithm.
  const auto ds = mini_dataset();
  engine::PlanConfig config;
  config.runs = 2;
  config.message_rate = 0.02;
  config.master_seed = 5;
  const auto sweep = engine::run_sweep(engine::make_plan(
      {engine::make_scenario(ds)}, forward::paper_algorithm_names(), config));
  const auto& cells = sweep.cells;
  ASSERT_EQ(cells.size(), 6u);

  const double epidemic_s = cells[0].overall.success_rate;
  ASSERT_GT(epidemic_s, 0.3);
  for (const auto& study : cells) {
    EXPECT_LE(study.overall.success_rate, epidemic_s + 1e-12)
        << study.overall.algorithm;
    // No forwarding chain may be silently truncated at paper scale.
    EXPECT_EQ(study.truncated_relay_steps, 0u) << study.overall.algorithm;
  }
  // The epidemic hop fix: delivered floods carry real hop counts.
  EXPECT_GT(cells[0].overall.average_hops, 0.0);

  // Pair-type effect: for Epidemic itself, in-in success should beat
  // out-out success (delivery to rarely-seen nodes is the hard case).
  const auto& epidemic_types = cells[0].by_pair_type.per_type;
  if (epidemic_types[0].messages >= 10 && epidemic_types[3].messages >= 10) {
    EXPECT_GE(epidemic_types[0].success_rate,
              epidemic_types[3].success_rate);
  }
}

TEST(Integration, CostExtensionHeadline) {
  // Extension: Epidemic's transmission cost dwarfs single-copy schemes.
  const auto ds = mini_dataset();
  engine::PlanConfig config;
  config.runs = 1;
  config.message_rate = 0.02;
  config.master_seed = 7;
  const auto sweep = engine::run_sweep(engine::make_plan(
      {engine::make_scenario(ds)}, forward::paper_algorithm_names(), config));
  const double epidemic_cost = sweep.cells[0].cost_per_message;
  const double fresh_cost = sweep.cells[1].cost_per_message;
  EXPECT_GT(epidemic_cost, 4.0 * std::max(fresh_cost, 0.5));
  for (const auto& study : sweep.cells)
    EXPECT_EQ(study.truncated_relay_steps, 0u) << study.overall.algorithm;
}

TEST(Integration, CityScaleSweepRunsEndToEnd) {
  // The scale-up acceptance check: a 2048-node scenario through run_sweep,
  // epidemic plus a single-copy scheme, end to end. Sixteen times the
  // historical 128-node ceiling.
  const auto scenario = engine::make_scenario_by_name("city_2048");
  ASSERT_EQ(scenario.dataset->trace.num_nodes(), 2048u);
  ASSERT_GT(scenario.dataset->trace.size(), 10000u);

  engine::PlanConfig config;
  config.runs = 1;
  config.master_seed = 11;
  config.message_rate = 0.002;  // ~14 messages; scale is in N, not load.
  const auto plan =
      engine::make_plan({scenario}, {"Epidemic", "FRESH"}, config);

  engine::ThreadPool pool(2);
  engine::SweepOptions options;
  options.pool = &pool;
  const auto result = engine::run_sweep(plan, options);
  ASSERT_EQ(result.cells.size(), 2u);

  const auto& epidemic = result.cells[0];
  const auto& fresh = result.cells[1];
  // The flood is the upper bound and must actually deliver at this scale.
  EXPECT_GT(epidemic.overall.delivered, 0u);
  EXPECT_GE(epidemic.overall.success_rate,
            fresh.overall.success_rate - 1e-12);
  // Delivered floods carry real hop counts through the closure.
  EXPECT_GT(epidemic.overall.average_hops, 0.0);
  // No silent relay truncation, even at city scale.
  EXPECT_EQ(epidemic.truncated_relay_steps, 0u);
  EXPECT_EQ(fresh.truncated_relay_steps, 0u);

  // Equivalence at city scale: the sparse event timeline (the default
  // above) must match the dense reference replay bit for bit, and stay
  // thread-count invariant. The scenario handle keeps the dataset and
  // graph cached, so these sweeps rebuild neither.
  engine::SweepOptions dense = options;
  dense.replay = forward::ReplayMode::kDense;
  const auto reference = engine::run_sweep(plan, dense);
  std::vector<engine::SweepResult> sparse_results;
  for (const std::size_t threads : {1u, 8u}) {
    engine::ThreadPool sparse_pool(threads);
    engine::SweepOptions sparse;
    sparse.pool = &sparse_pool;
    sparse_results.push_back(engine::run_sweep(plan, sparse));
  }
  for (const auto& other :
       {std::cref(result), std::cref(sparse_results[0]),
        std::cref(sparse_results[1])}) {
    ASSERT_EQ(other.get().cells.size(), reference.cells.size());
    for (std::size_t c = 0; c < reference.cells.size(); ++c) {
      const auto& a = reference.cells[c];
      const auto& b = other.get().cells[c];
      EXPECT_EQ(a.overall.delivered, b.overall.delivered);
      EXPECT_EQ(a.overall.success_rate, b.overall.success_rate);
      EXPECT_EQ(a.overall.average_delay, b.overall.average_delay);
      EXPECT_EQ(a.overall.average_hops, b.overall.average_hops);
      EXPECT_EQ(a.cost_per_message, b.cost_per_message);
      EXPECT_EQ(a.delays, b.delays);
      EXPECT_EQ(a.truncated_relay_steps, b.truncated_relay_steps);
    }
  }
}

}  // namespace
}  // namespace psn
