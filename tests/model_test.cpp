// Tests for psn::model: closed forms of §5.1.3, the truncated ODE system,
// the Kurtz-limit agreement of the jump simulator, and the heterogeneous
// Monte Carlo quadrant hypotheses of §5.2.

#include <gtest/gtest.h>

#include <cmath>

#include "psn/model/heterogeneous_mc.hpp"
#include "psn/model/homogeneous_model.hpp"
#include "psn/model/jump_simulator.hpp"
#include "psn/model/ode.hpp"

namespace psn::model {
namespace {

TEST(Rk4, IntegratesExponential) {
  // y' = y, y(0) = 1 -> y(1) = e.
  const OdeRhs rhs = [](double, const std::vector<double>& y,
                        std::vector<double>& dy) { dy[0] = y[0]; };
  const auto y = rk4_integrate(rhs, {1.0}, 0.0, 1.0, 0.01);
  EXPECT_NEAR(y[0], std::exp(1.0), 1e-8);
}

TEST(Rk4, IntegratesHarmonicOscillator) {
  // y'' = -y as a system; after 2*pi back to the start.
  const OdeRhs rhs = [](double, const std::vector<double>& y,
                        std::vector<double>& dy) {
    dy[0] = y[1];
    dy[1] = -y[0];
  };
  const auto y =
      rk4_integrate(rhs, {1.0, 0.0}, 0.0, 2.0 * 3.14159265358979323846, 1e-3);
  EXPECT_NEAR(y[0], 1.0, 1e-6);
  EXPECT_NEAR(y[1], 0.0, 1e-6);
}

TEST(Rk4, ObserverSeesEndpoints) {
  const OdeRhs rhs = [](double, const std::vector<double>&,
                        std::vector<double>& dy) { dy[0] = 1.0; };
  double first = -1.0;
  double last = -1.0;
  (void)rk4_integrate_observed(
      rhs, {0.0}, 0.0, 1.0, 0.1,
      [&](double t, const std::vector<double>&) {
        if (first < 0.0) first = t;
        last = t;
      });
  EXPECT_DOUBLE_EQ(first, 0.0);
  EXPECT_DOUBLE_EQ(last, 1.0);
}

TEST(Rk4, RejectsBadArgs) {
  const OdeRhs rhs = [](double, const std::vector<double>&,
                        std::vector<double>& dy) { dy[0] = 0.0; };
  EXPECT_THROW((void)rk4_integrate(rhs, {0.0}, 0.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)rk4_integrate(rhs, {0.0}, 1.0, 0.0, 0.1),
               std::invalid_argument);
}

TEST(HomogeneousModelTest, MeanGrowsExponentially) {
  HomogeneousModel m;
  m.lambda = 0.03;
  m.population = 200;
  // Eq. 4: E[S(t)] = (1/N) e^{lambda t}.
  EXPECT_NEAR(m.mean_paths(0.0), 1.0 / 200.0, 1e-15);
  EXPECT_NEAR(m.mean_paths(100.0) / m.mean_paths(0.0), std::exp(3.0), 1e-9);
}

TEST(HomogeneousModelTest, PhiAtOneIsOne) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  for (const double t : {0.0, 10.0, 100.0})
    EXPECT_DOUBLE_EQ(m.phi(1.0, t), 1.0);
}

TEST(HomogeneousModelTest, PhiDecaysForXBelowOne) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 50;
  // Eq. 2: phi decreasing in t toward 0 for 0 <= x < 1.
  const double p0 = m.phi(0.5, 0.0);
  const double p1 = m.phi(0.5, 50.0);
  const double p2 = m.phi(0.5, 200.0);
  EXPECT_GT(p0, p1);
  EXPECT_GT(p1, p2);
  EXPECT_GT(p2, 0.0);
}

TEST(HomogeneousModelTest, PhiDerivativeMatchesMean) {
  // Numerical d(phi)/dx at x=1- equals E[S(t)].
  HomogeneousModel m;
  m.lambda = 0.04;
  m.population = 100;
  const double t = 60.0;
  const double h = 1e-6;
  const double numeric = (m.phi(1.0, t) - m.phi(1.0 - h, t)) / h;
  EXPECT_NEAR(numeric, m.mean_paths(t), 1e-4 * m.mean_paths(t) + 1e-9);
}

TEST(HomogeneousModelTest, BlowupTimeMatchesClosedForm) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  const double x = 2.0;
  const double tc = m.blowup_time(x);
  // Just before TC phi is finite and large; after TC it throws.
  EXPECT_GT(m.phi(x, tc * 0.999), m.phi(x, 0.0));
  EXPECT_THROW((void)m.phi(x, tc * 1.01), std::domain_error);
  EXPECT_THROW((void)m.blowup_time(0.5), std::domain_error);
}

TEST(HomogeneousModelTest, VarianceFormula) {
  HomogeneousModel m;
  m.lambda = 0.02;
  m.population = 100;
  // At t=0: Bernoulli(1/N) variance.
  EXPECT_NEAR(m.variance_paths(0.0), (1.0 / 100) * (1 - 1.0 / 100), 1e-12);
  // Variance grows ~ e^{2 lambda t} at late t: doubling t multiplies by
  // ~e^{2 lambda dt}.
  const double v1 = m.variance_paths(200.0);
  const double v2 = m.variance_paths(250.0);
  EXPECT_NEAR(v2 / v1, std::exp(2.0 * 0.02 * 50.0), 0.2);
}

TEST(HomogeneousModelTest, ExpectedFirstPathTime) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  EXPECT_NEAR(m.expected_first_path_time(), std::log(100.0) / 0.05, 1e-12);
}

TEST(HomogeneousModelTest, ClosedFormDensityAtTimeZero) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  EXPECT_NEAR(m.density_closed_form(0, 0.0), 0.99, 1e-12);
  EXPECT_NEAR(m.density_closed_form(1, 0.0), 0.01, 1e-12);
  EXPECT_NEAR(m.density_closed_form(2, 0.0), 0.0, 1e-12);
}

TEST(HomogeneousModelTest, ClosedFormDensitySumsToOne) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  for (const double t : {10.0, 50.0, 100.0}) {
    double sum = 0.0;
    for (std::size_t k = 0; k < 4000; ++k)
      sum += m.density_closed_form(k, t);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST(HomogeneousModelTest, ClosedFormDensityMeanMatchesEq4) {
  HomogeneousModel m;
  m.lambda = 0.04;
  m.population = 200;
  const double t = 80.0;
  double mean = 0.0;
  for (std::size_t k = 1; k < 20000; ++k)
    mean += static_cast<double>(k) * m.density_closed_form(k, t);
  EXPECT_NEAR(mean, m.mean_paths(t), m.mean_paths(t) * 1e-6);
}

TEST(DensityOde, MatchesClosedFormDensity) {
  // The K-truncated numeric ODE and the generating-function coefficients
  // must agree on the low states while the sink is still empty.
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  const auto traj = integrate_density_ode(m, 128, 60.0, 0.05, 4);
  for (const auto& p : traj) {
    for (std::size_t k = 0; k <= 5; ++k) {
      const double closed = m.density_closed_form(k, p.t);
      EXPECT_NEAR(p.u[k], closed, 1e-6 + closed * 1e-3)
          << "t=" << p.t << " k=" << k;
    }
  }
}

TEST(DensityOde, ConservesMass) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  const auto traj = integrate_density_ode(m, 64, 150.0, 0.05, 10);
  ASSERT_FALSE(traj.empty());
  for (const auto& p : traj) EXPECT_NEAR(total_mass(p.u), 1.0, 1e-8);
}

TEST(DensityOde, MeanMatchesClosedFormBeforeTruncationBites) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  // Track enough states that the truncation sink stays empty over [0, 80].
  const auto traj = integrate_density_ode(m, 128, 80.0, 0.05, 9);
  for (const auto& p : traj) {
    const double expected = m.mean_paths(p.t);
    EXPECT_NEAR(p.mean, expected, expected * 0.02 + 1e-9) << "t=" << p.t;
  }
}

TEST(DensityOde, U0DecaysMonotonically) {
  HomogeneousModel m;
  m.lambda = 0.05;
  m.population = 100;
  const auto traj = integrate_density_ode(m, 32, 120.0, 0.05, 12);
  for (std::size_t i = 1; i < traj.size(); ++i)
    EXPECT_LE(traj[i].u[0], traj[i - 1].u[0] + 1e-12);
}

TEST(DensityOde, RejectsBadTruncation) {
  HomogeneousModel m;
  EXPECT_THROW((void)integrate_density_ode(m, 0, 10.0, 0.1, 2),
               std::invalid_argument);
}

TEST(JumpSimulator, MeanTracksOdePrediction) {
  // Average several realizations: E[S(t)] = (1/N) e^{lambda t} (Eq. 4).
  JumpSimConfig config;
  config.population = 3000;
  config.lambda = 0.05;
  config.t_end = 120.0;
  config.samples = 7;
  constexpr int realizations = 12;

  std::vector<double> mean_at(config.samples, 0.0);
  std::vector<double> times(config.samples, 0.0);
  for (int r = 0; r < realizations; ++r) {
    config.seed = 100 + static_cast<std::uint64_t>(r);
    const auto samples = run_jump_simulation(config);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      mean_at[i] += samples[i].mean_paths / realizations;
      times[i] = samples[i].t;
    }
  }
  HomogeneousModel m;
  m.lambda = config.lambda;
  m.population = config.population;
  for (std::size_t i = 0; i < mean_at.size(); ++i) {
    const double expected = m.mean_paths(times[i]);
    // The averaged realizations should bracket the closed form within a
    // factor ~2 plus an absolute floor (the explosion front is the
    // highest-variance quantity in the whole model).
    EXPECT_LT(mean_at[i], expected * 2.5 + 0.01) << "t=" << times[i];
    EXPECT_GT(mean_at[i], expected / 2.5 - 0.01) << "t=" << times[i];
  }
}

TEST(JumpSimulator, LowDensitySumsToAtMostOne) {
  JumpSimConfig config;
  config.population = 500;
  config.lambda = 0.05;
  config.t_end = 60.0;
  config.samples = 5;
  config.seed = 5;
  const auto samples = run_jump_simulation(config);
  for (const auto& s : samples) {
    double sum = 0.0;
    for (const double d : s.low_density) sum += d;
    EXPECT_LE(sum, 1.0 + 1e-12);
    EXPECT_GE(sum, 0.0);
  }
}

TEST(JumpSimulator, InitialStateOnePathAtSource) {
  JumpSimConfig config;
  config.population = 100;
  config.lambda = 0.01;
  config.t_end = 1.0;
  config.samples = 2;
  config.seed = 7;
  const auto samples = run_jump_simulation(config);
  ASSERT_FALSE(samples.empty());
  EXPECT_NEAR(samples[0].mean_paths, 1.0 / 100.0, 1e-12);
  EXPECT_NEAR(samples[0].low_density[1], 1.0 / 100.0, 1e-12);
  EXPECT_NEAR(samples[0].low_density[0], 99.0 / 100.0, 1e-12);
}

TEST(JumpSimulator, GoldenSeedTrajectory) {
  // Pinned full trajectory of a fixed seed (captured before the sampling
  // fixes landed; the early-exit fix must not change emitted samples).
  JumpSimConfig config;
  config.population = 300;
  config.lambda = 0.05;
  config.t_end = 50.0;
  config.samples = 6;
  config.seed = 11;
  const auto samples = run_jump_simulation(config);
  ASSERT_EQ(samples.size(), 6u);
  const double golden_t[] = {0.0, 10.0, 20.0, 30.0, 40.0, 50.0};
  const double golden_mean[] = {0.0033333333333333335, 0.01,
                                0.013333333333333334, 0.013333333333333334,
                                0.02, 0.033333333333333333};
  const double golden_var[] = {0.0033222222222221843, 0.009900000000000032,
                               0.013155555555555511, 0.013155555555555511,
                               0.019599999999999954, 0.03222222222222236};
  const double golden_u0[] = {0.9966666666666667, 0.98999999999999999,
                              0.98666666666666669, 0.98666666666666669,
                              0.97999999999999998, 0.96666666666666667};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].t, golden_t[i]) << i;
    EXPECT_DOUBLE_EQ(samples[i].mean_paths, golden_mean[i]) << i;
    EXPECT_DOUBLE_EQ(samples[i].variance_paths, golden_var[i]) << i;
    EXPECT_DOUBLE_EQ(samples[i].low_density[0], golden_u0[i]) << i;
  }
}

TEST(JumpSimulator, SampleTimesNeverExceedHorizon) {
  // Regression for the trailing catch-up loop: the sample grid's
  // floating-point accumulation used to stamp the final sample past
  // t_end (e.g. t_end = 0.3, samples = 8 produced t = 0.30000000000000004).
  const struct {
    double t_end;
    std::size_t samples;
  } cases[] = {{0.3, 8}, {0.7, 13}, {1.2, 8}, {5.6, 13}, {58.8, 50}};
  for (const auto& c : cases) {
    JumpSimConfig config;
    config.population = 50;
    config.lambda = 1.0;
    config.t_end = c.t_end;
    config.samples = c.samples;
    config.seed = 3;
    const auto samples = run_jump_simulation(config);
    ASSERT_EQ(samples.size(), c.samples);
    double previous = -1.0;
    for (const auto& s : samples) {
      EXPECT_LE(s.t, config.t_end) << "t_end=" << c.t_end;
      EXPECT_GE(s.t, previous);
      previous = s.t;
    }
  }
}

TEST(JumpSimulator, ZeroSamplesYieldEmptyTrajectory) {
  JumpSimConfig config;
  config.population = 50;
  config.t_end = 10.0;
  config.samples = 0;
  EXPECT_TRUE(run_jump_simulation(config).empty());
}

TEST(JumpSimulator, DeterministicInSeed) {
  JumpSimConfig config;
  config.population = 300;
  config.t_end = 50.0;
  config.seed = 11;
  const auto a = run_jump_simulation(config);
  const auto b = run_jump_simulation(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].mean_paths, b[i].mean_paths);
}

TEST(HeterogeneousMc, GoldenSeedResults) {
  // Pinned per-message results of a fixed seed (captured before the
  // population/message split and the NaN-sentinel change; both must
  // leave the single-stream serial path bit-identical).
  HeterogeneousMcConfig config;
  config.population = 60;
  config.max_rate = 0.15;
  config.t_end = 3000.0;
  config.k = 50;
  config.messages = 40;
  config.seed = 21;
  const auto results = run_heterogeneous_mc(config);
  ASSERT_EQ(results.size(), 40u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.delivered);
    EXPECT_TRUE(r.exploded);
  }
  EXPECT_EQ(results[0].type, trace::Quadrant::out_in);
  EXPECT_DOUBLE_EQ(results[0].t1, 56.761956367123375);
  EXPECT_DOUBLE_EQ(results[0].te, 29.514618004016725);
  EXPECT_EQ(results[1].type, trace::Quadrant::in_in);
  EXPECT_DOUBLE_EQ(results[1].t1, 22.55041063058809);
  EXPECT_DOUBLE_EQ(results[1].te, 23.158815760475115);
  // Exploded on the delivering contact itself: a legitimate zero wait,
  // which the NaN sentinel now distinguishes from "never exploded".
  EXPECT_DOUBLE_EQ(results[7].t1, 64.414114886802835);
  EXPECT_DOUBLE_EQ(results[7].explosion_wait(), 0.0);
  EXPECT_EQ(results[10].type, trace::Quadrant::out_out);
  EXPECT_DOUBLE_EQ(results[10].t1, 81.685470377563476);
  EXPECT_DOUBLE_EQ(results[39].t1, 31.556444592296245);
  EXPECT_DOUBLE_EQ(results[39].te, 30.101551928853624);
  std::size_t count[4] = {0, 0, 0, 0};
  for (const auto& r : results) ++count[static_cast<std::size_t>(r.type)];
  EXPECT_EQ(count[0], 13u);
  EXPECT_EQ(count[1], 8u);
  EXPECT_EQ(count[2], 14u);
  EXPECT_EQ(count[3], 5u);
}

TEST(HeterogeneousMc, UndeliveredMessagesCarryNaNSentinels) {
  // Regression for the 0.0 sentinel: a horizon too short for every
  // delivery must leave t1/te NaN, not a zero that poisons averages.
  HeterogeneousMcConfig config;
  config.population = 60;
  config.max_rate = 0.15;
  config.t_end = 20.0;
  config.k = 50;
  config.messages = 40;
  config.seed = 21;
  const auto results = run_heterogeneous_mc(config);
  std::size_t undelivered = 0;
  std::size_t unexploded = 0;
  for (const auto& r : results) {
    if (!r.delivered) {
      ++undelivered;
      EXPECT_TRUE(std::isnan(r.t1));
    } else {
      EXPECT_FALSE(std::isnan(r.first_arrival()));
      EXPECT_LT(r.first_arrival(), config.t_end);
    }
    if (!r.exploded)
      ++unexploded;
    else
      EXPECT_FALSE(std::isnan(r.explosion_wait()));
    EXPECT_EQ(std::isnan(r.te), !r.exploded);
  }
  // The config is engineered so the horizon truncates some messages.
  EXPECT_GT(undelivered, 0u);
  EXPECT_GT(unexploded, undelivered);
  EXPECT_LT(undelivered, results.size());
}

TEST(HeterogeneousMc, QuadrantOrderingHypotheses) {
  HeterogeneousMcConfig config;
  config.population = 100;
  config.max_rate = 0.12;
  config.t_end = 7200.0;
  config.k = 500;
  config.messages = 600;
  config.seed = 13;
  const auto results = run_heterogeneous_mc(config);
  ASSERT_EQ(results.size(), 600u);

  double t1_sum[4] = {0, 0, 0, 0};
  double te_sum[4] = {0, 0, 0, 0};
  std::size_t t1_n[4] = {0, 0, 0, 0};
  std::size_t te_n[4] = {0, 0, 0, 0};
  for (const auto& r : results) {
    const auto q = static_cast<std::size_t>(r.type);
    if (r.delivered) {
      t1_sum[q] += r.t1;
      ++t1_n[q];
    }
    if (r.exploded) {
      te_sum[q] += r.te;
      ++te_n[q];
    }
  }
  for (int q = 0; q < 4; ++q) {
    ASSERT_GT(t1_n[q], 10u) << "quadrant " << q;
    ASSERT_GT(te_n[q], 10u) << "quadrant " << q;
  }
  using trace::Quadrant;
  const auto t1_mean = [&](Quadrant t) {
    const auto q = static_cast<std::size_t>(t);
    return t1_sum[q] / static_cast<double>(t1_n[q]);
  };
  const auto te_mean = [&](Quadrant t) {
    const auto q = static_cast<std::size_t>(t);
    return te_sum[q] / static_cast<double>(te_n[q]);
  };
  // §5.2 hypotheses: T1 driven by the source class, TE by the destination.
  EXPECT_LT(t1_mean(Quadrant::in_in), t1_mean(Quadrant::out_in));
  EXPECT_LT(t1_mean(Quadrant::in_out), t1_mean(Quadrant::out_out));
  EXPECT_LT(te_mean(Quadrant::in_in), te_mean(Quadrant::in_out));
  EXPECT_LT(te_mean(Quadrant::out_in), te_mean(Quadrant::out_out));
}

// Parameterized sweep: the ODE mean matches e^{lambda t} for a range of
// lambdas and populations (truncation chosen so the sink stays empty).
class LambdaSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(LambdaSweep, OdeMeanMatchesClosedForm) {
  const auto [lambda, population] = GetParam();
  HomogeneousModel m;
  m.lambda = lambda;
  m.population = population;
  // Integrate to the time where E[S] ~ 30/N so the 256-truncation holds.
  const double t_end = std::log(30.0) / lambda;
  const auto traj = integrate_density_ode(m, 256, t_end, 0.02 / lambda, 5);
  for (const auto& p : traj) {
    const double expected = m.mean_paths(p.t);
    EXPECT_NEAR(p.mean, expected, expected * 0.02 + 1e-9)
        << "lambda=" << lambda << " N=" << population << " t=" << p.t;
    EXPECT_NEAR(total_mass(p.u), 1.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, LambdaSweep,
    ::testing::Combine(::testing::Values(0.01, 0.05, 0.2),
                       ::testing::Values<std::size_t>(50, 500)));

}  // namespace
}  // namespace psn::model
