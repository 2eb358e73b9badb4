// Cross-module property tests on randomized traces (parameterized over
// generator seeds). These check the deep invariants that tie the repo
// together:
//
//  1. Epidemic simulation, the reachability sweep, and the path
//     enumerator's first delivery all agree on the optimal duration
//     T(sigma, delta, t1) — three independent implementations of §4's
//     optimality notion.
//  2. Every recorded enumerated path is structurally valid.
//  3. T_n is non-decreasing; no algorithm beats Epidemic.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/algorithms/epidemic.hpp"
#include "psn/forward/simulator.hpp"
#include "psn/graph/reachability.hpp"
#include "psn/paths/enumerator.hpp"
#include "psn/synth/conference.hpp"
#include "psn/util/rng.hpp"

namespace psn {
namespace {

using forward::Message;
using graph::NodeId;
using graph::Seconds;

struct RandomScenario {
  trace::ContactTrace trace;
  graph::SpaceTimeGraph graph;

  explicit RandomScenario(std::uint64_t seed)
      : trace(make_trace(seed)), graph(trace, 10.0) {}

  static trace::ContactTrace make_trace(std::uint64_t seed) {
    synth::ConferenceConfig config;
    config.mobile_nodes = 24;
    config.stationary_nodes = 0;
    config.t_max = 1800.0;
    config.mean_node_rate = 0.05;
    config.mean_contact_duration = 40.0;
    config.gaps = synth::GapModel::exponential;
    config.scan_interval = 0.0;
    config.seed = seed;
    return generate_conference(config).trace;
  }
};

class SeededCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededCrossCheck, EpidemicEqualsReachabilityEqualsEnumeratorT1) {
  const RandomScenario scenario(GetParam());
  util::Rng rng(GetParam() * 33 + 1);

  paths::EnumeratorConfig config;
  config.k = 200;
  config.record_paths = false;
  const paths::KPathEnumerator enumerator(scenario.graph, config);

  for (int trial = 0; trial < 12; ++trial) {
    const auto src =
        static_cast<NodeId>(rng.uniform_index(scenario.trace.num_nodes()));
    auto dst = static_cast<NodeId>(
        rng.uniform_index(scenario.trace.num_nodes() - 1));
    if (dst >= src) ++dst;
    const Seconds t0 = rng.uniform(0.0, 1200.0);

    // (a) Reachability sweep.
    const auto sweep =
        graph::optimal_duration(scenario.graph, src, dst, t0);

    // (b) Epidemic simulation.
    forward::EpidemicForwarding epidemic;
    const std::vector<Message> one_message = {Message{0, src, dst, t0}};
    forward::SimulationRequest request;
    request.algorithm = &epidemic;
    request.graph = &scenario.graph;
    request.trace = &scenario.trace;
    request.messages = &one_message;
    const auto sim = forward::simulate(request);
    std::optional<Seconds> epidemic_delay;
    if (sim.outcomes[0].delivered) epidemic_delay = sim.outcomes[0].delay;

    // (c) Enumerator's first delivery.
    const auto enumerated = enumerator.enumerate(src, dst, t0);
    const auto t1 = enumerated.optimal_duration();

    ASSERT_EQ(sweep.has_value(), epidemic_delay.has_value())
        << "src=" << src << " dst=" << dst << " t0=" << t0;
    ASSERT_EQ(sweep.has_value(), t1.has_value())
        << "src=" << src << " dst=" << dst << " t0=" << t0;
    if (sweep.has_value()) {
      EXPECT_DOUBLE_EQ(*sweep, *epidemic_delay)
          << "src=" << src << " dst=" << dst << " t0=" << t0;
      EXPECT_DOUBLE_EQ(*sweep, *t1)
          << "src=" << src << " dst=" << dst << " t0=" << t0;
    }
  }
}

TEST_P(SeededCrossCheck, EnumeratedPathsAreValidAndOrdered) {
  const RandomScenario scenario(GetParam());
  util::Rng rng(GetParam() * 77 + 5);

  paths::EnumeratorConfig config;
  config.k = 100;
  config.record_paths = true;
  const paths::KPathEnumerator enumerator(scenario.graph, config);

  for (int trial = 0; trial < 6; ++trial) {
    const auto src =
        static_cast<NodeId>(rng.uniform_index(scenario.trace.num_nodes()));
    auto dst = static_cast<NodeId>(
        rng.uniform_index(scenario.trace.num_nodes() - 1));
    if (dst >= src) ++dst;
    const auto r = enumerator.enumerate(src, dst, rng.uniform(0.0, 900.0));

    // Deliveries past the per-step record cap are counted but not
    // materialized (see enumerator.cpp), so not every record carries a
    // path; every materialized path must be structurally valid, and a
    // delivered message must have at least one.
    Seconds prev_arrival = 0.0;
    std::size_t materialized = 0;
    for (const auto& d : r.deliveries) {
      EXPECT_GE(d.arrival, prev_arrival);
      prev_arrival = d.arrival;
      EXPECT_GE(d.count, 1u);
      if (!d.path.valid()) continue;
      ++materialized;
      const auto seq = d.path.sequence();
      EXPECT_TRUE(paths::is_structurally_valid(seq, scenario.graph, src));
      EXPECT_EQ(seq.back().first, dst);
      EXPECT_EQ(seq.size(), static_cast<std::size_t>(d.hops) + 1);
    }
    if (r.delivered()) {
      EXPECT_GE(materialized, 1u);
    }
  }
}

TEST_P(SeededCrossCheck, NoAlgorithmBeatsEpidemic) {
  const RandomScenario scenario(GetParam());

  // A small shared workload.
  util::Rng rng(GetParam() * 101 + 9);
  std::vector<Message> messages;
  for (std::uint32_t i = 0; i < 40; ++i) {
    const auto src =
        static_cast<NodeId>(rng.uniform_index(scenario.trace.num_nodes()));
    auto dst = static_cast<NodeId>(
        rng.uniform_index(scenario.trace.num_nodes() - 1));
    if (dst >= src) ++dst;
    messages.push_back(Message{i, src, dst, rng.uniform(0.0, 1200.0)});
  }

  forward::EpidemicForwarding epidemic;
  forward::SimulationRequest request;
  request.graph = &scenario.graph;
  request.trace = &scenario.trace;
  request.messages = &messages;
  request.algorithm = &epidemic;
  const auto upper = forward::simulate(request);

  for (const auto& name : forward::extended_algorithm_names()) {
    const auto alg = forward::make_algorithm(name);
    request.algorithm = alg.get();
    const auto r = forward::simulate(request);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      if (r.outcomes[i].delivered) {
        // Anything delivered must also be delivered by Epidemic, no later.
        ASSERT_TRUE(upper.outcomes[i].delivered)
            << alg->name() << " message " << i;
        EXPECT_LE(upper.outcomes[i].delay, r.outcomes[i].delay + 1e-9)
            << alg->name() << " message " << i;
      }
    }
    EXPECT_LE(r.delivered_count(), upper.delivered_count()) << alg->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededCrossCheck,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// The T1 agreement must hold at every discretization, not just 10 s.
class DeltaCrossCheck
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(DeltaCrossCheck, SweepMatchesEnumeratorAtAnyDelta) {
  const auto [seed, delta] = GetParam();
  const auto trace = RandomScenario::make_trace(seed);
  const graph::SpaceTimeGraph g(trace, delta);

  paths::EnumeratorConfig config;
  config.k = 50;
  config.record_paths = false;
  const paths::KPathEnumerator enumerator(g, config);

  util::Rng rng(seed * 7 + 3);
  for (int trial = 0; trial < 8; ++trial) {
    const auto src = static_cast<NodeId>(rng.uniform_index(trace.num_nodes()));
    auto dst =
        static_cast<NodeId>(rng.uniform_index(trace.num_nodes() - 1));
    if (dst >= src) ++dst;
    const Seconds t0 = rng.uniform(0.0, 1000.0);

    const auto sweep = graph::optimal_duration(g, src, dst, t0);
    const auto t1 = enumerator.enumerate(src, dst, t0).optimal_duration();
    ASSERT_EQ(sweep.has_value(), t1.has_value())
        << "delta=" << delta << " src=" << src << " dst=" << dst;
    if (sweep.has_value()) {
      EXPECT_DOUBLE_EQ(*sweep, *t1) << "delta=" << delta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeltaSweep, DeltaCrossCheck,
    ::testing::Combine(::testing::Values<std::uint64_t>(4, 9),
                       ::testing::Values(2.0, 5.0, 10.0, 30.0, 60.0)));

}  // namespace
}  // namespace psn
