// Tests for psn::stats: CDFs, histograms, summaries, box stats, tables.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "psn/stats/box_stats.hpp"
#include "psn/stats/cdf.hpp"
#include "psn/stats/histogram.hpp"
#include "psn/stats/summary.hpp"
#include "psn/stats/table.hpp"
#include "psn/util/rng.hpp"

namespace psn::stats {
namespace {

TEST(EmpiricalCdf, EmptyBehaves) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_EQ(cdf.at(0.0), 0.0);
}

TEST(EmpiricalCdf, StepFunction) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, HandlesDuplicates) {
  EmpiricalCdf cdf({2.0, 2.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(4.9), 0.75);
}

TEST(EmpiricalCdf, Quantiles) {
  EmpiricalCdf cdf({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 30.0);
}

TEST(EmpiricalCdf, QuantileOfEmptyThrows) {
  EmpiricalCdf cdf;
  EXPECT_THROW((void)cdf.quantile(0.5), std::logic_error);
}

TEST(KsStatistic, IdenticalSamplesZero) {
  EmpiricalCdf a({1.0, 2.0, 3.0});
  EmpiricalCdf b({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 0.0);
}

TEST(KsStatistic, DisjointSamplesOne) {
  EmpiricalCdf a({1.0, 2.0});
  EmpiricalCdf b({10.0, 20.0});
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 1.0);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_left(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_left(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
}

TEST(Histogram, AddAndCount) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(1.9);
  h.add(9.9);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
}

TEST(Histogram, OutOfRangeClamped) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
}

TEST(Histogram, WeightsAndCumulative) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5, 2.0);
  h.add(1.5, 3.0);
  h.add(3.5, 5.0);
  const auto c = h.cumulative();
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 5.0);
  EXPECT_DOUBLE_EQ(c[2], 5.0);
  EXPECT_DOUBLE_EQ(c[3], 10.0);
}

TEST(Histogram, RejectsBadArgs) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 3), std::invalid_argument);
}

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 4.571428571, 1e-9);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, SingleSampleNoVariance) {
  Accumulator acc;
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stderr_mean(), 0.0);
}

TEST(CiHalfwidth, MatchesNormalQuantile) {
  Accumulator acc;
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) acc.add(rng.uniform());
  // 99% CI half-width: 2.5758 * sigma / sqrt(n); the sample's shape does
  // not enter, only its standard deviation.
  const double expected = 2.5758 * acc.stddev() / std::sqrt(10000.0);
  EXPECT_NEAR(ci99_halfwidth(acc), expected, expected * 0.01);
  // At a standard error of exactly 1 the half-width is z itself: the
  // double the printed intervals were computed with.
  Accumulator unit;
  unit.add(0.0);
  unit.add(2.0);
  ASSERT_EQ(unit.stderr_mean(), 1.0);
  EXPECT_EQ(ci99_halfwidth(unit), 0x1.49b4c653a0a4bp+1);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Pearson, IndependentNearZero) {
  util::Rng rng(9);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.uniform());
    ys.push_back(rng.uniform());
  }
  EXPECT_NEAR(pearson(xs, ys), 0.0, 0.03);
}

TEST(Pearson, DegenerateIsZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Pearson, SizeMismatchThrows) {
  EXPECT_THROW((void)pearson({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(BoxStatsTest, QuartilesOfKnownSample) {
  const auto b = box_stats({1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_DOUBLE_EQ(b.median, 5.0);
  EXPECT_DOUBLE_EQ(b.q1, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 7.0);
  EXPECT_DOUBLE_EQ(b.mean, 5.0);
  EXPECT_EQ(b.n, 9u);
}

TEST(BoxStatsTest, WhiskersExcludeOutliers) {
  // 100 is far outside q3 + 1.5 IQR.
  const auto b = box_stats({1, 2, 3, 4, 5, 6, 7, 8, 100});
  EXPECT_LT(b.whisker_hi, 100.0);
  EXPECT_DOUBLE_EQ(b.whisker_lo, 1.0);
}

TEST(BoxStatsTest, EmptyThrows) {
  EXPECT_THROW((void)box_stats({}), std::invalid_argument);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.50"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

}  // namespace
}  // namespace psn::stats
