// Tests for psn::graph: space-time discretization, per-step components,
// temporal reachability. Includes the paper's Fig. 2 example.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "psn/graph/components.hpp"
#include "psn/graph/reachability.hpp"
#include "psn/graph/space_time_graph.hpp"
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
  // Past Step's range and non-finite: clamped (or 0 for NaN), never cast
  // out of range.
  EXPECT_EQ(g.step_of(1e300), g.num_steps() - 1);
  EXPECT_EQ(g.step_of(std::numeric_limits<Seconds>::infinity()),
            g.num_steps() - 1);
  EXPECT_EQ(g.step_of(-std::numeric_limits<Seconds>::infinity()), 0u);
  EXPECT_EQ(g.step_of(std::numeric_limits<Seconds>::quiet_NaN()), 0u);
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
  EXPECT_THROW(SpaceTimeGraph(trace, -1.0), std::invalid_argument);
  EXPECT_THROW(SpaceTimeGraph(trace, std::numeric_limits<Seconds>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(SpaceTimeGraph(trace, std::numeric_limits<Seconds>::infinity()),
               std::invalid_argument);
  // A window of more than 2^32 - 1 steps is refused before any allocation
  // (60 s at 1 ns would be 6e10 steps; the second is 2^32 exactly).
  const auto minute = make_trace({Contact::make(0, 1, 0.0, 1.0)}, 2, 60.0);
  EXPECT_THROW(SpaceTimeGraph(minute, 1e-9), std::length_error);
  EXPECT_THROW(SpaceTimeGraph(minute, 60.0 / 4294967296.0), std::length_error);
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

/// A deterministic random trace for the build and component oracle tests:
/// `k` contacts over `n` nodes, uniform times, durations up to three
/// steps so contacts straddle step boundaries.
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

/// The discretization rule the header states, applied contact by contact
/// into per-step pair sets: a contact occupies every step from its
/// start's through its end's, except that a positive-length contact
/// leaves the step beginning exactly at its end; clamped to the last step.
std::vector<std::set<std::pair<NodeId, NodeId>>> brute_force_steps(
    const ContactTrace& trace, Seconds delta, Step steps) {
  const auto step_at = [&](Seconds t) {
    return std::min(static_cast<Step>(std::floor(t / delta)), steps - 1);
  };
  std::vector<std::set<std::pair<NodeId, NodeId>>> pairs(steps);
  for (const Contact& c : trace.contacts()) {
    for (Step s = step_at(c.start); s <= step_at(c.end); ++s) {
      if (c.end > c.start && static_cast<Seconds>(s) * delta == c.end)
        continue;
      pairs[s].insert({c.a, c.b});
    }
  }
  return pairs;
}

/// Compares every public view of the graph with the brute-force oracle.
void expect_matches_brute_force(const ContactTrace& trace, Seconds delta,
                                const std::string& label) {
  SCOPED_TRACE(label);
  const SpaceTimeGraph g(trace, delta);
  const auto oracle = brute_force_steps(trace, delta, g.num_steps());
  std::vector<std::vector<Step>> contact_steps(trace.num_nodes());
  std::vector<std::vector<NodeId>> want_nb(trace.num_nodes());
  std::vector<Step> active;
  std::size_t total = 0;
  for (Step s = 0; s < g.num_steps(); ++s) {
    const auto& want = oracle[s];
    const auto es = g.edges(s);
    const auto flags = g.new_edge_flags(s);
    ASSERT_EQ(es.size(), want.size()) << "step " << s;
    ASSERT_EQ(flags.size(), want.size()) << "step " << s;
    std::size_t i = 0;
    for (const auto& [a, b] : want) {
      EXPECT_EQ(es[i].a, a) << "step " << s;
      EXPECT_EQ(es[i].b, b) << "step " << s;
      const bool fresh = s == 0 || oracle[s - 1].count({a, b}) == 0;
      EXPECT_EQ(flags[i], fresh ? 1 : 0) << "step " << s << " pair " << a
                                         << "-" << b;
      ++i;
    }
    for (auto& list : want_nb) list.clear();
    for (const auto& [a, b] : want) {
      want_nb[a].push_back(b);
      want_nb[b].push_back(a);
    }
    for (NodeId v = 0; v < trace.num_nodes(); ++v) {
      std::sort(want_nb[v].begin(), want_nb[v].end());
      const auto nb = g.neighbors(s, v);
      EXPECT_TRUE(std::equal(nb.begin(), nb.end(), want_nb[v].begin(),
                             want_nb[v].end()))
          << "step " << s << " node " << v;
      if (!want_nb[v].empty()) contact_steps[v].push_back(s);
    }
    if (!want.empty()) active.push_back(s);
    total += want.size();
  }
  for (NodeId v = 0; v < trace.num_nodes(); ++v) {
    const auto steps = g.contact_steps(v);
    EXPECT_TRUE(std::equal(steps.begin(), steps.end(),
                           contact_steps[v].begin(), contact_steps[v].end()))
        << "node " << v;
  }
  const auto got = g.active_steps();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), active.begin(), active.end()));
  EXPECT_EQ(g.total_edges(), total);
}

/// A seeded trace of 2-150 nodes built to hit the discretization's edge
/// cases at delta = 1 and 10 s: starts on and off step boundaries,
/// zero-length contacts, contacts clipped at 0 and t_max, and same-pair
/// follow-ups that overlap, abut, or leave one empty step between them.
ContactTrace edge_case_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto n = static_cast<NodeId>(2 + rng.uniform_index(149));
  const Seconds t_max = rng.bernoulli(0.5)
                            ? 10.0 * static_cast<Seconds>(
                                         1 + rng.uniform_index(30))
                            : rng.uniform(1.0, 300.0);
  const auto time = [&](Seconds lo, Seconds hi) {
    const Seconds t = rng.uniform(lo, hi);
    switch (rng.uniform_index(3)) {
      case 0: return 10.0 * std::floor(t / 10.0);  // both grids.
      case 1: return std::floor(t);                // the 1 s grid.
      default: return t;
    }
  };
  std::vector<Contact> cs;
  const std::size_t k = rng.uniform_index(120);
  for (std::size_t i = 0; i < k; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_index(n));
    auto b = static_cast<NodeId>(rng.uniform_index(n - 1));
    if (b >= a) ++b;
    const Seconds start = time(-5.0, t_max);
    Seconds end = start;  // zero-length one time in five.
    if (!rng.bernoulli(0.2))
      end = std::max(start, time(start, start + (rng.bernoulli(0.1)
                                                     ? t_max  // past t_max.
                                                     : 25.0)));
    cs.push_back(Contact::make(a, b, start, end));
    if (!rng.bernoulli(0.4)) continue;
    const Seconds grid = rng.bernoulli(0.5) ? 1.0 : 10.0;
    Seconds next = end;  // abuts.
    switch (rng.uniform_index(3)) {
      case 0:  // overlaps.
        next = rng.uniform(start, end);
        break;
      case 1:  // one empty step (of `grid`) between the two.
        next = grid * (std::floor(end / grid) + 2.0) + rng.uniform(0.0, grid);
        break;
      default:
        break;
    }
    cs.push_back(Contact::make(a, b, next, next + time(0.0, 20.0)));
  }
  return ContactTrace(std::move(cs), n, t_max);
}

TEST(SpaceTimeGraph, MatchesBruteForceDiscretization) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const auto trace = edge_case_trace(seed);
    for (const Seconds delta : {1.0, 10.0})
      expect_matches_brute_force(
          trace, delta,
          "seed " + std::to_string(seed) + " delta " + std::to_string(delta));
  }
  // Degenerate traces: empty, one contact, and every contact in one step.
  expect_matches_brute_force(ContactTrace({}, 3, 50.0), 10.0, "empty");
  expect_matches_brute_force(
      make_trace({Contact::make(0, 1, 5.0, 8.0)}, 2, 60.0), 10.0, "one");
  expect_matches_brute_force(random_contacts(64, 500, 10.0, 9), 10.0,
                             "burst");
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
