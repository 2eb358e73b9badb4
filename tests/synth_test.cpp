// Tests for psn::synth: the trace generators and their calibration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "psn/engine/thread_pool.hpp"
#include "psn/stats/summary.hpp"
#include "psn/synth/conference.hpp"
#include "psn/synth/homogeneous.hpp"
#include "psn/synth/metropolis.hpp"
#include "psn/synth/random_waypoint.hpp"
#include "psn/trace/contact_trace.hpp"
#include "psn/util/rng.hpp"

namespace psn::synth {
namespace {

// A flat conference population: no stationary class, no modulation,
// exponential gaps and unquantized starts, i.e. the plain heterogeneous
// pairwise-Poisson trace.
ConferenceConfig flat_config(trace::NodeId nodes, trace::Seconds t_max,
                             std::uint64_t seed) {
  ConferenceConfig config;
  config.mobile_nodes = nodes;
  config.stationary_nodes = 0;
  config.t_max = t_max;
  config.gaps = GapModel::exponential;
  config.scan_interval = 0.0;
  config.seed = seed;
  return config;
}

TEST(Conference, DeterministicInSeed) {
  const auto config = flat_config(20, 600.0, 5);
  const auto a = generate_conference(config);
  const auto b = generate_conference(config);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    EXPECT_EQ(a.trace[i], b.trace[i]);
}

TEST(Conference, DifferentSeedsDiffer) {
  auto config = flat_config(20, 600.0, 5);
  const auto a = generate_conference(config);
  config.seed = 6;
  const auto b = generate_conference(config);
  EXPECT_NE(a.trace.size(), b.trace.size());
}

TEST(Conference, MeanNodeRateCalibrated) {
  auto config = flat_config(60, 4.0 * 3600.0, 11);
  config.mean_node_rate = 0.05;
  const auto g = generate_conference(config);
  // Ground-truth rates average to the configured mean by construction.
  const double gt_mean = stats::mean_of(g.node_rates);
  EXPECT_NEAR(gt_mean, config.mean_node_rate, 1e-12);
  // Realized rates agree statistically.
  const auto realized = g.trace.contact_rates();
  EXPECT_NEAR(stats::mean_of(realized), config.mean_node_rate,
              config.mean_node_rate * 0.1);
}

TEST(Conference, RealizedRatesTrackGroundTruth) {
  auto config = flat_config(50, 6.0 * 3600.0, 17);
  config.mean_node_rate = 0.06;
  const auto g = generate_conference(config);
  const auto realized = g.trace.contact_rates();
  std::vector<double> gt(g.node_rates.begin(), g.node_rates.end());
  EXPECT_GT(stats::pearson(gt, realized), 0.95);
}

TEST(Conference, UniformWeightsGiveSpreadOutRates) {
  const auto g = generate_conference(flat_config(90, 3.0 * 3600.0, 23));
  // Fig. 7: rates approximately uniform on (0, max) -> the coefficient of
  // variation of a U(0, m) sample is 1/sqrt(3) ~ 0.577.
  stats::Accumulator acc;
  for (const double r : g.node_rates) acc.add(r);
  const double cv = acc.stddev() / acc.mean();
  EXPECT_NEAR(cv, 0.577, 0.12);
}

TEST(Conference, ScanIntervalQuantizesStartsPerPairPhase) {
  auto config = flat_config(30, 3600.0, 29);
  config.scan_interval = 120.0;
  const auto g = generate_conference(config);
  ASSERT_GT(g.trace.size(), 0u);
  // Each pair has its own scan phase: within a pair, start times differ by
  // multiples of the scan interval (unless clamped at 0).
  std::map<std::pair<trace::NodeId, trace::NodeId>, double> first_start;
  for (const auto& c : g.trace.contacts()) {
    const auto key = std::make_pair(c.a, c.b);
    const auto [it, inserted] = first_start.try_emplace(key, c.start);
    if (inserted || c.start == 0.0 || it->second == 0.0) continue;
    const double diff = c.start - it->second;
    const double remainder = std::fmod(diff, 120.0);
    EXPECT_LT(std::min(remainder, 120.0 - remainder), 1e-6)
        << c.to_string();
  }
}

TEST(Conference, ParetoGapsPreserveMeanRate) {
  auto config = flat_config(60, 6.0 * 3600.0, 71);
  config.mean_node_rate = 0.03;
  config.gaps = GapModel::pareto;
  config.pareto_gap_shape = 1.6;
  const auto g = generate_conference(config);
  const auto realized = g.trace.contact_rates();
  // Heavy tails add variance, but the mean rate calibration must hold.
  EXPECT_NEAR(stats::mean_of(realized), config.mean_node_rate,
              config.mean_node_rate * 0.25);
}

TEST(Conference, ParetoGapsHaveHeavierTailThanExponential) {
  // One pair, so every gap has the same rate: the pooled gap distribution
  // then isolates the gap model's shape (pairs of different rates would
  // make the pooled distribution heavy-tailed by mixing alone). The pair
  // meets at mean_node_rate, about once per 780 s, over 8000 hours.
  auto config = flat_config(2, 8000.0 * 3600.0, 73);
  config.mean_node_rate = 0.05 / 39.0;

  const auto exp_trace = generate_conference(config).trace;
  config.gaps = GapModel::pareto;
  const auto par_trace = generate_conference(config).trace;

  const auto tail_fraction = [](const trace::ContactTrace& t) {
    // The pair's gaps: from the latest contact end to the next start
    // after it (an overlapping contact leaves none).
    std::vector<double> gaps;
    const auto contacts = t.contacts();
    for (std::size_t i = 1, last = 0; i < contacts.size(); ++i) {
      if (contacts[i].start > contacts[last].end)
        gaps.push_back(contacts[i].start - contacts[last].end);
      if (contacts[i].end > contacts[last].end) last = i;
    }
    if (gaps.empty()) return 0.0;
    double mean = 0.0;
    for (const double g : gaps) mean += g;
    mean /= static_cast<double>(gaps.size());
    std::size_t tail = 0;
    for (const double g : gaps)
      if (g > 5.0 * mean) ++tail;
    return static_cast<double>(tail) / static_cast<double>(gaps.size());
  };
  // P(gap > 5 * mean): exp(-5) ~ 0.0067 for exponential; the Pareto tail
  // is several times heavier.
  EXPECT_GT(tail_fraction(par_trace), 2.0 * tail_fraction(exp_trace));
}

TEST(Conference, GapHelperMatchesRequestedMean) {
  util::Rng rng(79);
  const double rate = 0.02;
  double sum_exp = 0.0;
  double sum_par = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum_exp += draw_intercontact_gap(GapModel::exponential, 1.6, rate, rng);
    sum_par += draw_intercontact_gap(GapModel::pareto, 1.6, rate, rng);
  }
  EXPECT_NEAR(sum_exp / n, 1.0 / rate, 1.0 / rate * 0.02);
  // alpha = 1.6 has finite mean but huge variance; loose tolerance.
  EXPECT_NEAR(sum_par / n, 1.0 / rate, 1.0 / rate * 0.25);
}

TEST(Conference, RejectsDegenerateConfigs) {
  // Each config either cannot be calibrated or would never advance time
  // (Pareto gaps with shape <= 1 have a scale <= 0), so both generators
  // must refuse it rather than hang or emit garbage. Small populations
  // over 10 minutes keep a generator that lacks a check cheap to catch.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto base = flat_config(4, 600.0, 1);
  std::vector<ConferenceConfig> bad(8, base);
  bad[0].mobile_nodes = 1;
  bad[1].mean_node_rate = 0.0;
  bad[2].mean_node_rate = kNaN;
  bad[3].mean_node_rate = kInf;
  bad[4].t_max = 0.0;
  bad[5].t_max = kInf;
  bad[6].t_max = kNaN;
  bad[7].gaps = GapModel::pareto;
  bad[7].pareto_gap_shape = 1.0;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW((void)generate_conference(bad[i]), std::invalid_argument)
        << "config " << i;
    if (bad[i].gaps == GapModel::exponential) {
      EXPECT_THROW((void)generate_metropolis(bad[i]), std::invalid_argument)
          << "config " << i;
    }
  }
  // The superposed process exists only for memoryless gaps.
  auto pareto = base;
  pareto.gaps = GapModel::pareto;
  EXPECT_NO_THROW((void)generate_conference(pareto));
  EXPECT_THROW((void)generate_metropolis(pareto), std::invalid_argument);
  // A NaN or huge boost makes its pair mass S^2 - Q NaN, from which the
  // shard count would be cast.
  for (const double boost : {kNaN, 1e300}) {
    auto boosted = base;
    boosted.stationary_nodes = 2;
    boosted.stationary_weight_boost = boost;
    EXPECT_THROW((void)generate_metropolis(boosted), std::invalid_argument)
        << boost;
  }
}

TEST(Homogeneous, PerNodeRateMatches) {
  HomogeneousConfig config;
  config.num_nodes = 80;
  config.t_max = 4.0 * 3600.0;
  config.node_rate = 0.04;
  config.seed = 31;
  const auto trace = generate_homogeneous(config);
  const auto rates = trace.contact_rates();
  EXPECT_NEAR(stats::mean_of(rates), config.node_rate,
              config.node_rate * 0.1);
  // Homogeneity: per-node spread is small (Poisson noise only).
  stats::Accumulator acc;
  for (const double r : rates) acc.add(r);
  EXPECT_LT(acc.stddev() / acc.mean(), 0.25);
}

TEST(Conference, PopulationLayout) {
  ConferenceConfig config;
  config.mobile_nodes = 10;
  config.stationary_nodes = 4;
  config.t_max = 1800.0;
  config.seed = 37;
  config.modulation = default_conference_modulation(config.t_max);
  const auto g = generate_conference(config);
  EXPECT_EQ(g.trace.num_nodes(), 14u);
  EXPECT_EQ(g.node_weights.size(), 14u);
}

TEST(Conference, ModulationShapesDensity) {
  // Low factor in the first half, high in the second: the second half must
  // log clearly more contacts.
  ConferenceConfig config;
  config.mobile_nodes = 40;
  config.stationary_nodes = 0;
  config.t_max = 3600.0;
  config.mean_node_rate = 0.08;
  config.scan_interval = 0.0;
  config.modulation = {{0.0, 1800.0, 0.5}, {1800.0, 3600.0, 2.0}};
  config.seed = 41;
  const auto g = generate_conference(config);
  std::size_t first = 0;
  std::size_t second = 0;
  for (const auto& c : g.trace.contacts())
    (c.start < 1800.0 ? first : second) += 1;
  EXPECT_GT(second, first * 2);
}

TEST(Conference, DefaultModulationCoversWindowAndDeclines) {
  const auto segs = default_conference_modulation(3.0 * 3600.0);
  ASSERT_FALSE(segs.empty());
  EXPECT_DOUBLE_EQ(segs.front().start, 0.0);
  EXPECT_DOUBLE_EQ(segs.back().end, 3.0 * 3600.0);
  // Contiguous coverage.
  for (std::size_t i = 1; i < segs.size(); ++i)
    EXPECT_DOUBLE_EQ(segs[i].start, segs[i - 1].end);
  // The final segment is in decline (factor < 1 of its session baseline).
  EXPECT_LT(segs.back().factor, 1.0);
}

TEST(Conference, StationaryBoostRaisesStationaryRates) {
  ConferenceConfig config;
  config.mobile_nodes = 40;
  config.stationary_nodes = 40;
  config.t_max = 2.0 * 3600.0;
  config.stationary_weight_boost = 3.0;
  config.seed = 43;
  const auto g = generate_conference(config);
  double mobile = 0.0;
  double stationary = 0.0;
  for (std::size_t i = 0; i < 40; ++i) mobile += g.node_rates[i];
  for (std::size_t i = 40; i < 80; ++i) stationary += g.node_rates[i];
  EXPECT_GT(stationary, mobile * 1.5);
}

TEST(RandomWaypoint, DeterministicInSeed) {
  RandomWaypointConfig config;
  config.num_nodes = 10;
  config.t_max = 300.0;
  config.seed = 47;
  const auto a = generate_random_waypoint(config);
  const auto b = generate_random_waypoint(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(RandomWaypoint, ProducesContactsInDenseArea) {
  RandomWaypointConfig config;
  config.num_nodes = 25;
  config.area_side = 100.0;  // dense: plenty of contacts.
  config.t_max = 600.0;
  config.seed = 53;
  const auto trace = generate_random_waypoint(config);
  EXPECT_GT(trace.size(), 10u);
}

TEST(RandomWaypoint, ContactsRespectWindow) {
  RandomWaypointConfig config;
  config.num_nodes = 15;
  config.area_side = 120.0;
  config.t_max = 400.0;
  config.seed = 59;
  const auto trace = generate_random_waypoint(config);
  for (const auto& c : trace.contacts()) {
    EXPECT_GE(c.start, 0.0);
    EXPECT_LE(c.end, 400.0);
    EXPECT_LE(c.start, c.end);
  }
}

TEST(RandomWaypoint, HomogeneousRates) {
  RandomWaypointConfig config;
  config.num_nodes = 30;
  config.area_side = 150.0;
  config.t_max = 3600.0;
  config.seed = 61;
  const auto trace = generate_random_waypoint(config);
  const auto rates = trace.contact_rates();
  stats::Accumulator acc;
  for (const double r : rates) acc.add(r);
  ASSERT_GT(acc.mean(), 0.0);
  // RWP mixes uniformly; spread should be far below the conference CV.
  EXPECT_LT(acc.stddev() / acc.mean(), 0.45);
}

ConferenceConfig small_metropolis_config() {
  ConferenceConfig config;
  config.mobile_nodes = 900;
  config.stationary_nodes = 24;
  config.t_max = 3600.0;
  config.mean_node_rate = 0.02;
  config.gaps = GapModel::exponential;
  config.modulation = default_conference_modulation(config.t_max);
  config.seed = 44;
  return config;
}

TEST(Metropolis, ExecutorChoiceNeverChangesTheTrace) {
  // The whole point of the time-sharded design: shard geometry and
  // per-shard streams are a function of the config alone, so the serial
  // reference and any pool produce the identical trace.
  const auto config = small_metropolis_config();
  const auto serial = generate_metropolis(config);
  engine::ThreadPool pool(8);
  const auto pooled = generate_metropolis(config, engine::parallel_for(pool));
  ASSERT_EQ(serial.trace.size(), pooled.trace.size());
  for (std::size_t i = 0; i < serial.trace.size(); ++i)
    ASSERT_EQ(serial.trace[i], pooled.trace[i]) << "contact " << i;
  ASSERT_EQ(serial.node_rates, pooled.node_rates);
  ASSERT_EQ(serial.node_weights, pooled.node_weights);
}

TEST(Metropolis, DeterministicInSeedAndSeedSensitive) {
  const auto config = small_metropolis_config();
  const auto a = generate_metropolis(config);
  const auto b = generate_metropolis(config);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    EXPECT_EQ(a.trace[i], b.trace[i]);
  auto reseeded = config;
  reseeded.seed = 45;
  const auto c = generate_metropolis(reseeded);
  EXPECT_NE(a.trace.size(), c.trace.size());
}

TEST(Metropolis, CalibrationHitsTheConfiguredMeanRate) {
  // Realized population-mean contact rate should land near
  // mean_node_rate scaled by the average modulation factor, same as the
  // pairwise conference generator it replaces at scale.
  auto config = small_metropolis_config();
  const auto generated = generate_metropolis(config);
  double modulation_mass = 0.0;
  for (const auto& seg : config.modulation)
    modulation_mass += (seg.end - seg.start) * seg.factor;
  const double average_factor = modulation_mass / config.t_max;
  const double expected_contacts = config.mean_node_rate * average_factor *
                                   static_cast<double>(config.total_nodes()) *
                                   config.t_max / 2.0;
  const auto realized = static_cast<double>(generated.trace.size());
  EXPECT_GT(realized, 0.6 * expected_contacts);
  EXPECT_LT(realized, 1.4 * expected_contacts);
  // Canonical trace ordering and in-window timestamps.
  const auto& cs = generated.trace.contacts();
  for (std::size_t i = 0; i < cs.size(); ++i) {
    ASSERT_LT(cs[i].a, cs[i].b);
    ASSERT_GE(cs[i].start, 0.0);
    ASSERT_LE(cs[i].end, config.t_max);
    if (i > 0) {
      ASSERT_LE(cs[i - 1].start, cs[i].start);
    }
  }
}

TEST(Metropolis, StationaryNodesCarryBoostedWeights) {
  const auto config = small_metropolis_config();
  const auto generated = generate_metropolis(config);
  ASSERT_EQ(generated.node_weights.size(),
            static_cast<std::size_t>(config.total_nodes()));
  stats::Accumulator mobile, stationary;
  for (trace::NodeId v = 0; v < config.total_nodes(); ++v) {
    if (v < config.mobile_nodes)
      mobile.add(generated.node_weights[v]);
    else
      stationary.add(generated.node_weights[v]);
  }
  EXPECT_GT(stationary.mean(), mobile.mean());
}

}  // namespace
}  // namespace psn::synth
