// Tests for psn::forward metrics aggregation and pair-type splitting.

#include <gtest/gtest.h>

#include "psn/forward/metrics.hpp"

namespace psn::forward {
namespace {

::psn::forward::Run make_run(std::vector<Message> msgs, std::vector<MessageOutcome> outs) {
  ::psn::forward::Run run;
  run.messages = std::move(msgs);
  run.result.outcomes = std::move(outs);
  return run;
}

TEST(Metrics, AggregateAcrossRuns) {
  std::vector<::psn::forward::Run> runs;
  runs.push_back(make_run({{0, 0, 1, 0.0}, {1, 1, 2, 0.0}},
                          {{true, 10.0, 1}, {false, 0.0, 0}}));
  runs.push_back(make_run({{0, 0, 1, 0.0}, {1, 1, 2, 0.0}},
                          {{true, 30.0, 1}, {true, 20.0, 1}}));
  const auto perf = aggregate_performance("X", runs);
  EXPECT_EQ(perf.algorithm, "X");
  EXPECT_EQ(perf.messages, 4u);
  EXPECT_EQ(perf.delivered, 3u);
  EXPECT_DOUBLE_EQ(perf.success_rate, 0.75);
  EXPECT_DOUBLE_EQ(perf.average_delay, 20.0);
}

TEST(Metrics, EmptyRunsSafe) {
  const auto perf = aggregate_performance("X", {});
  EXPECT_EQ(perf.messages, 0u);
  EXPECT_DOUBLE_EQ(perf.success_rate, 0.0);
  EXPECT_DOUBLE_EQ(perf.average_delay, 0.0);
}

TEST(Metrics, PooledDelays) {
  std::vector<::psn::forward::Run> runs;
  runs.push_back(make_run({{0, 0, 1, 0.0}}, {{true, 5.0, 1}}));
  runs.push_back(make_run({{0, 0, 1, 0.0}}, {{false, 0.0, 0}}));
  runs.push_back(make_run({{0, 0, 1, 0.0}}, {{true, 15.0, 1}}));
  const auto delays = pooled_delays(runs);
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 5.0);
  EXPECT_DOUBLE_EQ(delays[1], 15.0);
}

trace::RateClassification fake_rc() {
  // Nodes 0,1 are 'in'; nodes 2,3 are 'out'.
  trace::RateClassification rc;
  rc.rates = {10.0, 9.0, 1.0, 0.5};
  rc.median_rate = 5.0;
  rc.classes = {trace::RateClass::in_node, trace::RateClass::in_node,
                trace::RateClass::out_node, trace::RateClass::out_node};
  return rc;
}

TEST(Metrics, SplitByPairType) {
  const auto rc = fake_rc();
  std::vector<::psn::forward::Run> runs;
  runs.push_back(make_run(
      {
          {0, 0, 1, 0.0},  // in-in, delivered 10
          {1, 0, 2, 0.0},  // in-out, failed
          {2, 2, 1, 0.0},  // out-in, delivered 30
          {3, 3, 2, 0.0},  // out-out, delivered 50
      },
      {{true, 10.0, 1}, {false, 0.0, 0}, {true, 30.0, 1}, {true, 50.0, 1}}));
  const auto split = split_by_pair_type("X", runs, rc);
  EXPECT_DOUBLE_EQ(split.per_type[0].success_rate, 1.0);
  EXPECT_DOUBLE_EQ(split.per_type[0].average_delay, 10.0);
  EXPECT_DOUBLE_EQ(split.per_type[1].success_rate, 0.0);
  EXPECT_DOUBLE_EQ(split.per_type[2].average_delay, 30.0);
  EXPECT_DOUBLE_EQ(split.per_type[3].average_delay, 50.0);
  EXPECT_EQ(split.per_type[0].messages, 1u);
}

TEST(Metrics, SplitRejectsMismatchedRun) {
  const auto rc = fake_rc();
  std::vector<::psn::forward::Run> runs;
  runs.push_back(make_run({{0, 0, 1, 0.0}}, {}));
  EXPECT_THROW((void)split_by_pair_type("X", runs, rc),
               std::invalid_argument);
}

}  // namespace
}  // namespace psn::forward
