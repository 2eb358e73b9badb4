// Tests for psn::graph: space-time discretization, per-step components,
// temporal reachability. Includes the paper's Fig. 2 example.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "psn/engine/thread_pool.hpp"
#include "psn/graph/components.hpp"
#include "psn/graph/reachability.hpp"
#include "psn/graph/space_time_graph.hpp"
#include "psn/util/parallel.hpp"
#include "psn/util/rng.hpp"

namespace psn::graph {
namespace {

using trace::Contact;
using trace::ContactTrace;

ContactTrace make_trace(std::vector<Contact> cs, NodeId n, Seconds t_max) {
  return ContactTrace(std::move(cs), n, t_max);
}

TEST(SpaceTimeGraph, Fig2Example) {
  // Paper Fig. 2: nodes 1,2 in contact during the first step; all three
  // pairs during the second. (0-based here.)
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 0.0, 1.0),
          Contact::make(0, 1, 1.0, 2.0),
          Contact::make(0, 2, 1.0, 2.0),
          Contact::make(1, 2, 1.0, 2.0),
      },
      3, 2.0);
  const SpaceTimeGraph g(trace, 1.0);
  ASSERT_EQ(g.num_steps(), 2u);
  EXPECT_EQ(g.edges(0).size(), 1u);
  EXPECT_EQ(g.edges(1).size(), 3u);
  EXPECT_TRUE(g.in_contact(0, 0, 1));
  EXPECT_FALSE(g.in_contact(0, 0, 2));
  EXPECT_TRUE(g.in_contact(1, 0, 2));
  EXPECT_TRUE(g.in_contact(1, 1, 2));
}

TEST(SpaceTimeGraph, ContactSpanningStepsAppearsInEach) {
  const auto trace =
      make_trace({Contact::make(0, 1, 5.0, 35.0)}, 2, 60.0);
  const SpaceTimeGraph g(trace, 10.0);
  ASSERT_EQ(g.num_steps(), 6u);
  EXPECT_TRUE(g.in_contact(0, 0, 1));
  EXPECT_TRUE(g.in_contact(1, 0, 1));
  EXPECT_TRUE(g.in_contact(2, 0, 1));
  EXPECT_TRUE(g.in_contact(3, 0, 1));  // [30, 40) contains 30..35.
  EXPECT_FALSE(g.in_contact(4, 0, 1));
}

TEST(SpaceTimeGraph, ContactEndingOnBoundaryExcludedFromNextStep) {
  const auto trace = make_trace({Contact::make(0, 1, 0.0, 10.0)}, 2, 30.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_TRUE(g.in_contact(0, 0, 1));
  EXPECT_FALSE(g.in_contact(1, 0, 1));
}

TEST(SpaceTimeGraph, ZeroLengthContactStillPresent) {
  const auto trace = make_trace({Contact::make(0, 1, 15.0, 15.0)}, 2, 30.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_TRUE(g.in_contact(1, 0, 1));
  EXPECT_FALSE(g.in_contact(0, 0, 1));
}

TEST(SpaceTimeGraph, DuplicateContactsDeduplicated) {
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(0, 1, 6.0, 9.0),  // same step 0
      },
      2, 10.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_EQ(g.edges(0).size(), 1u);
}

TEST(SpaceTimeGraph, NeighborsSortedAndSymmetric) {
  const auto trace = make_trace(
      {
          Contact::make(3, 1, 0.0, 5.0),
          Contact::make(3, 2, 0.0, 5.0),
          Contact::make(3, 0, 0.0, 5.0),
      },
      4, 10.0);
  const SpaceTimeGraph g(trace, 10.0);
  const auto nb = g.neighbors(0, 3);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0u);
  EXPECT_EQ(nb[1], 1u);
  EXPECT_EQ(nb[2], 2u);
  EXPECT_EQ(g.neighbors(0, 1).size(), 1u);
  EXPECT_EQ(g.neighbors(0, 1)[0], 3u);
}

TEST(SpaceTimeGraph, StepOfClampsAndFloors) {
  const auto trace = make_trace({Contact::make(0, 1, 0.0, 1.0)}, 2, 100.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_EQ(g.step_of(-5.0), 0u);
  EXPECT_EQ(g.step_of(0.0), 0u);
  EXPECT_EQ(g.step_of(9.99), 0u);
  EXPECT_EQ(g.step_of(10.0), 1u);
  EXPECT_EQ(g.step_of(1e9), g.num_steps() - 1);
}

TEST(SpaceTimeGraph, StepEndTimes) {
  const auto trace = make_trace({Contact::make(0, 1, 0.0, 1.0)}, 2, 100.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_DOUBLE_EQ(g.step_end(0), 10.0);
  EXPECT_DOUBLE_EQ(g.step_end(4), 50.0);
}

TEST(SpaceTimeGraph, SupportsPopulationsBeyond128Nodes) {
  // The historical Bitset128 ceiling rejected >128-node traces at
  // construction; with dynamic NodeSets the graph must just work.
  std::vector<Contact> cs{
      Contact::make(0, 1, 0.0, 1.0),
      Contact::make(150, 199, 2.0, 4.0),
      Contact::make(1, 199, 2.0, 4.0),
  };
  const ContactTrace trace(cs, 200, 10.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_EQ(g.num_nodes(), 200u);
  EXPECT_TRUE(g.in_contact(0, 150, 199));
  EXPECT_TRUE(g.in_contact(0, 199, 1));
  ASSERT_EQ(g.neighbors(0, 199).size(), 2u);
  EXPECT_EQ(g.neighbors(0, 199)[0], 1u);    // sorted ascending
  EXPECT_EQ(g.neighbors(0, 199)[1], 150u);
}

TEST(SpaceTimeGraph, ArenaEdgesAndAdjacencyAgree) {
  // CSR arena invariant: for every step, edges(s) and neighbors(s, v)
  // describe the same symmetric graph.
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 0.0, 20.0),
          Contact::make(1, 2, 0.0, 5.0),
          Contact::make(0, 1, 3.0, 6.0),  // duplicate pair within step 0
          Contact::make(2, 3, 12.0, 18.0),
      },
      5, 30.0);
  const SpaceTimeGraph g(trace, 10.0);
  for (Step s = 0; s < g.num_steps(); ++s) {
    std::size_t degree_sum = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto nb = g.neighbors(s, v);
      degree_sum += nb.size();
      EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
      for (const NodeId w : nb) EXPECT_TRUE(g.in_contact(s, w, v));
    }
    EXPECT_EQ(degree_sum, 2 * g.edges(s).size());
    // Per-step edges are deduplicated and sorted by (a, b).
    const auto es = g.edges(s);
    for (std::size_t i = 1; i < es.size(); ++i) {
      EXPECT_TRUE(es[i - 1].a < es[i].a ||
                  (es[i - 1].a == es[i].a && es[i - 1].b < es[i].b));
    }
  }
  EXPECT_EQ(g.edges(0).size(), 2u);  // 0-1 deduplicated, 1-2
}

TEST(SpaceTimeGraph, RejectsNonPositiveDelta) {
  const auto trace = make_trace({Contact::make(0, 1, 0.0, 1.0)}, 2, 10.0);
  EXPECT_THROW(SpaceTimeGraph(trace, 0.0), std::invalid_argument);
}

TEST(SpaceTimeGraph, TotalEdges) {
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 0.0, 20.0),  // steps 0,1
          Contact::make(1, 2, 0.0, 5.0),   // step 0
      },
      3, 20.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_EQ(g.total_edges(), 3u);
}

TEST(SpaceTimeGraph, IsolatedNodeHasNoNeighbors) {
  const auto trace = make_trace({Contact::make(0, 1, 0.0, 5.0)}, 4, 10.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_TRUE(g.neighbors(0, 2).empty());
  EXPECT_TRUE(g.neighbors(0, 3).empty());
}

TEST(SpaceTimeGraph, InContactIsSymmetric) {
  const auto trace = make_trace({Contact::make(2, 5, 0.0, 5.0)}, 6, 10.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_TRUE(g.in_contact(0, 2, 5));
  EXPECT_TRUE(g.in_contact(0, 5, 2));
  EXPECT_FALSE(g.in_contact(0, 2, 4));
  EXPECT_FALSE(g.in_contact(0, 4, 2));
}

TEST(SpaceTimeGraph, EmptyTraceStillHasSteps) {
  const trace::ContactTrace empty({}, 3, 50.0);
  const SpaceTimeGraph g(empty, 10.0);
  EXPECT_EQ(g.num_steps(), 5u);
  EXPECT_EQ(g.total_edges(), 0u);
  EXPECT_TRUE(g.edges(0).empty());
}

/// A deterministic random trace for the build-equivalence and component
/// oracle tests: `k` contacts over `n` nodes, uniform times, durations up
/// to three steps so contacts straddle step boundaries.
ContactTrace random_contacts(NodeId n, std::size_t k, Seconds t_max,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Contact> cs;
  cs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_index(n));
    auto b = static_cast<NodeId>(rng.uniform_index(n - 1));
    if (b >= a) ++b;
    const Seconds start = rng.uniform(0.0, t_max);
    const Seconds end = std::min(start + rng.uniform(0.0, 30.0), t_max);
    cs.push_back(Contact::make(a, b, start, end));
  }
  return ContactTrace(std::move(cs), n, t_max);
}

TEST(SpaceTimeGraph, ShardedBuildMatchesSerialByteForByte) {
  // The parallel construction path must reproduce the serial arenas
  // exactly — same counts, same offsets, same orders — for any executor.
  // Duplicate pairs within a step, boundary-ending contacts, and empty
  // steps are all present in the random traces.
  engine::ThreadPool pool(8);
  const util::ParallelFor pooled = engine::parallel_for(pool);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto trace = random_contacts(150, 4000, 1800.0, seed);
    const SpaceTimeGraph serial(trace, 10.0);
    const SpaceTimeGraph sharded_serial(trace, 10.0,
                                        util::serial_parallel_for());
    const SpaceTimeGraph sharded_pooled(trace, 10.0, pooled);
    EXPECT_TRUE(serial.arenas_identical(sharded_serial)) << "seed " << seed;
    EXPECT_TRUE(serial.arenas_identical(sharded_pooled)) << "seed " << seed;
  }
}

TEST(SpaceTimeGraph, ShardedBuildMatchesSerialOnDegenerateTraces) {
  engine::ThreadPool pool(4);
  const util::ParallelFor pooled = engine::parallel_for(pool);
  // Empty trace: no contacts to shard over.
  const ContactTrace empty({}, 3, 50.0);
  EXPECT_TRUE(SpaceTimeGraph(empty, 10.0).arenas_identical(
      SpaceTimeGraph(empty, 10.0, pooled)));
  // One contact: fewer contacts than shards.
  const auto tiny = make_trace({Contact::make(0, 1, 5.0, 8.0)}, 2, 60.0);
  EXPECT_TRUE(SpaceTimeGraph(tiny, 10.0).arenas_identical(
      SpaceTimeGraph(tiny, 10.0, pooled)));
  // All contacts in one step: every other shard row is empty.
  const auto burst = random_contacts(64, 500, 10.0, 9);
  EXPECT_TRUE(SpaceTimeGraph(burst, 10.0).arenas_identical(
      SpaceTimeGraph(burst, 10.0, pooled)));
}

TEST(Components, StepComponentsMatchUnionFindOracle) {
  // Both component extractors are checked against the UnionFind oracle:
  // step_components_at (the scalar flood kernel's masks and member
  // lists) and the whole-graph StepComponents index the default flood
  // kernel reads. Each must describe exactly the non-singleton
  // components the oracle labels, in canonical order, and the index's
  // neighbour positions must map back to exactly graph.neighbors(s, v).
  const auto trace = random_contacts(200, 3000, 600.0, 17);
  const SpaceTimeGraph g(trace, 10.0);
  const StepComponents index(g);
  ASSERT_EQ(index.num_steps(), g.num_active_steps());
  EXPECT_EQ(index.num_nodes(), g.num_nodes());
  EXPECT_GT(index.bytes(), 0u);
  StepComponentScratch scratch;
  for (std::size_t i = 0; i < g.num_active_steps(); ++i) {
    const Step s = g.active_steps()[i];
    const std::size_t count = step_components_at(g, s, scratch);
    const auto labels = components_at(g, s);

    // Oracle: label -> members (ascending), non-singleton only — neither
    // extractor materializes isolated nodes. std::map iterates labels
    // ascending: the canonical component order.
    std::map<NodeId, std::vector<NodeId>> oracle;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      oracle[labels[v]].push_back(v);
    std::erase_if(oracle, [](const auto& kv) {
      return kv.second.size() < 2;
    });

    ASSERT_EQ(count, oracle.size()) << "step " << s;
    const auto [first, last] = index.step_range(i);
    ASSERT_EQ(last - first, oracle.size()) << "step " << s;
    std::uint32_t c = first;
    std::size_t k = 0;
    for (const auto& [label, members] : oracle) {
      const StepComponent& comp = scratch.pool[k++];
      ASSERT_FALSE(comp.members.empty());
      // The discovery-order front is the canonical (smallest) label.
      EXPECT_EQ(comp.members.front(), label) << "step " << s;
      std::vector<NodeId> sorted_members = comp.members;
      std::sort(sorted_members.begin(), sorted_members.end());
      EXPECT_EQ(sorted_members, members);
      EXPECT_EQ(comp.mask.count(), members.size());
      for (const NodeId v : members) EXPECT_TRUE(comp.mask.test(v));

      const StepComponents::Component entry = index.component(c++);
      ASSERT_EQ(std::vector<NodeId>(entry.members.begin(),
                                    entry.members.end()),
                members)
          << "step " << s;
      for (std::uint32_t p = 0; p < entry.members.size(); ++p) {
        std::vector<NodeId> mapped;
        for (const std::uint32_t q : entry.neighbors(p)) {
          ASSERT_LT(q, entry.members.size());
          mapped.push_back(entry.members[q]);
        }
        const auto nbrs = g.neighbors(s, entry.members[p]);
        EXPECT_EQ(mapped, std::vector<NodeId>(nbrs.begin(), nbrs.end()))
            << "step " << s << " node " << entry.members[p];
      }
    }
  }

  // Appending one step to a cleared index reproduces that step's entry —
  // the per-step extraction un-adopted flood runs use.
  StepComponents one;
  for (const std::size_t i : {std::size_t{0}, g.num_active_steps() / 2,
                              g.num_active_steps() - 1}) {
    one.clear(g.num_nodes());
    one.append(g, g.active_steps()[i], scratch);
    ASSERT_EQ(one.num_steps(), 1u);
    const auto [first, last] = index.step_range(i);
    const auto [one_first, one_last] = one.step_range(0);
    ASSERT_EQ(one_last - one_first, last - first);
    for (std::uint32_t c = 0; c < last - first; ++c) {
      const auto a = index.component(first + c);
      const auto b = one.component(one_first + c);
      ASSERT_TRUE(std::equal(a.members.begin(), a.members.end(),
                             b.members.begin(), b.members.end()));
      for (std::uint32_t p = 0; p < a.members.size(); ++p) {
        const auto na = a.neighbors(p);
        const auto nb = b.neighbors(p);
        EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
      }
    }
  }
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_EQ(uf.find(0), uf.find(2));
  EXPECT_NE(uf.find(0), uf.find(3));
}

TEST(Components, LabelsAreCanonicalSmallestMember) {
  const auto trace = make_trace(
      {
          Contact::make(2, 4, 0.0, 5.0),
          Contact::make(4, 1, 0.0, 5.0),
      },
      6, 10.0);
  const SpaceTimeGraph g(trace, 10.0);
  const auto labels = components_at(g, 0);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[2], 1u);
  EXPECT_EQ(labels[4], 1u);
  EXPECT_EQ(labels[0], 0u);  // isolated nodes are singletons.
  EXPECT_EQ(labels[3], 3u);
  EXPECT_EQ(labels[5], 5u);
}

TEST(Reachability, DirectContactDelivers) {
  const auto trace = make_trace({Contact::make(0, 1, 15.0, 18.0)}, 2, 60.0);
  const SpaceTimeGraph g(trace, 10.0);
  const auto d = optimal_duration(g, 0, 1, 0.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 20.0);  // end of step 1.
}

TEST(SpaceTimeGraph, ActiveStepIndexListsOnlyStepsWithEdges) {
  // Contacts land in steps 1 and 5 of a 10-step window; everything else
  // is a gap the event timeline must skip.
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 12.0, 15.0),
          Contact::make(1, 2, 52.0, 55.0),
      },
      3, 100.0);
  const SpaceTimeGraph g(trace, 10.0);
  ASSERT_EQ(g.num_steps(), 10u);
  const auto active = g.active_steps();
  ASSERT_EQ(g.num_active_steps(), 2u);
  EXPECT_EQ(active[0], 1u);
  EXPECT_EQ(active[1], 5u);
}

TEST(SpaceTimeGraph, NextActiveStepCursor) {
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 12.0, 15.0),
          Contact::make(1, 2, 52.0, 55.0),
      },
      3, 100.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_EQ(g.next_active_step(0), 1u);
  EXPECT_EQ(g.next_active_step(1), 1u);  // active steps return themselves.
  EXPECT_EQ(g.next_active_step(2), 5u);
  EXPECT_EQ(g.next_active_step(5), 5u);
  // Past the last contact the cursor reports the end of the replay.
  EXPECT_EQ(g.next_active_step(6), g.num_steps());
  EXPECT_EQ(g.next_active_step(9), g.num_steps());
}

TEST(SpaceTimeGraph, ActiveStepIndexOnEmptyTrace) {
  const auto trace = make_trace({}, 3, 50.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_EQ(g.num_active_steps(), 0u);
  EXPECT_TRUE(g.active_steps().empty());
  EXPECT_EQ(g.next_active_step(0), g.num_steps());
}

TEST(SpaceTimeGraph, ActiveStepIndexMatchesEdgeRanges) {
  // Cross-check the index against edges(s) on a denser example.
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 0.0, 25.0),
          Contact::make(2, 3, 40.0, 45.0),
          Contact::make(1, 3, 41.0, 44.0),
      },
      4, 60.0);
  const SpaceTimeGraph g(trace, 10.0);
  std::vector<Step> expected;
  for (Step s = 0; s < g.num_steps(); ++s)
    if (!g.edges(s).empty()) expected.push_back(s);
  const auto active = g.active_steps();
  ASSERT_EQ(active.size(), expected.size());
  EXPECT_TRUE(std::equal(active.begin(), active.end(), expected.begin()));
}

TEST(Reachability, MultiHopOverTime) {
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 5.0, 8.0),     // step 0
          Contact::make(1, 2, 25.0, 28.0),   // step 2
      },
      3, 60.0);
  const SpaceTimeGraph g(trace, 10.0);
  const auto d = optimal_duration(g, 0, 2, 0.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(*d, 30.0);  // end of step 2.
}

TEST(Reachability, ZeroWeightClosureWithinStep) {
  // Chain 0-1-2-3 all in one step: everything reachable that step.
  const auto trace = make_trace(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 0.0, 5.0),
          Contact::make(2, 3, 0.0, 5.0),
      },
      4, 30.0);
  const SpaceTimeGraph g(trace, 10.0);
  const auto r = earliest_delivery(g, 0, 0.0);
  for (NodeId v = 0; v < 4; ++v) {
    ASSERT_TRUE(r.reached(v));
    EXPECT_EQ(*r.arrival_step[v], 0u);
  }
}

TEST(Reachability, RespectsMessageStartTime) {
  // Contact happens before the message exists: unusable.
  const auto trace = make_trace({Contact::make(0, 1, 5.0, 8.0)}, 2, 60.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_FALSE(optimal_duration(g, 0, 1, 20.0).has_value());
}

TEST(Reachability, TimeOrderingMatters) {
  // 1-2 contact happens before 0-1: a message from 0 cannot use it.
  const auto trace = make_trace(
      {
          Contact::make(1, 2, 5.0, 8.0),    // step 0
          Contact::make(0, 1, 25.0, 28.0),  // step 2
      },
      3, 60.0);
  const SpaceTimeGraph g(trace, 10.0);
  EXPECT_FALSE(optimal_duration(g, 0, 2, 0.0).has_value());
  ASSERT_TRUE(optimal_duration(g, 0, 1, 0.0).has_value());
}

TEST(Reachability, UnreachableNodeHasNoValue) {
  const auto trace = make_trace({Contact::make(0, 1, 0.0, 5.0)}, 3, 30.0);
  const SpaceTimeGraph g(trace, 10.0);
  const auto r = earliest_delivery(g, 0, 0.0);
  EXPECT_TRUE(r.reached(1));
  EXPECT_FALSE(r.reached(2));
}

TEST(Reachability, SourceReachedImmediately) {
  const auto trace = make_trace({Contact::make(0, 1, 50.0, 55.0)}, 2, 60.0);
  const SpaceTimeGraph g(trace, 10.0);
  const auto r = earliest_delivery(g, 0, 12.0);
  ASSERT_TRUE(r.reached(0));
  EXPECT_EQ(*r.arrival_step[0], 1u);
}

}  // namespace
}  // namespace psn::graph
