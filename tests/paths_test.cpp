// Tests for psn::paths: the Path value type and the k-shortest valid path
// enumerator (Fig. 3), including validity rules: loop avoidance, minimal
// progress, first preference, and the zero-weight closure, the membership
// index's hash, and the per-node k-shortest trim's cut against the sort it
// replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "psn/core/workload.hpp"
#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/paths/enumerator.hpp"
#include "psn/paths/explosion.hpp"
#include "psn/paths/path.hpp"
#include "psn/synth/conference.hpp"
#include "psn/util/rng.hpp"

namespace psn::paths {
namespace {

using trace::Contact;
using trace::ContactTrace;

graph::SpaceTimeGraph make_graph(std::vector<Contact> cs, NodeId n,
                                 Seconds t_max, Seconds delta = 10.0) {
  return graph::SpaceTimeGraph(ContactTrace(std::move(cs), n, t_max), delta);
}

EnumerationResult run(const graph::SpaceTimeGraph& g, NodeId src, NodeId dst,
                      Seconds t0, std::size_t k = 2000) {
  EnumeratorConfig config;
  config.k = k;
  config.record_paths = true;
  return KPathEnumerator(g, config).enumerate(src, dst, t0);
}

std::uint64_t total_paths(const EnumerationResult& r) {
  std::uint64_t total = 0;
  for (const auto& d : r.deliveries) total += d.count;
  return total;
}

TEST(PathTest, OriginHasZeroHops) {
  const auto p = Path::origin(3, 7);
  EXPECT_EQ(p.hops(), 0u);
  EXPECT_EQ(p.last_node(), 3u);
  EXPECT_EQ(p.last_step(), 7u);
  EXPECT_TRUE(p.visits(3));
  EXPECT_FALSE(p.visits(4));
}

TEST(PathTest, ExtendAccumulates) {
  const auto p = Path::origin(0, 0).extend(1, 0).extend(2, 3);
  EXPECT_EQ(p.hops(), 2u);
  EXPECT_EQ(p.last_node(), 2u);
  EXPECT_EQ(p.last_step(), 3u);
  const auto seq = p.sequence();
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], (std::pair<NodeId, Step>{0, 0}));
  EXPECT_EQ(seq[1], (std::pair<NodeId, Step>{1, 0}));
  EXPECT_EQ(seq[2], (std::pair<NodeId, Step>{2, 3}));
}

TEST(PathTest, SharedSuffixIndependence) {
  const auto base = Path::origin(0, 0).extend(1, 1);
  const auto a = base.extend(2, 2);
  const auto b = base.extend(3, 2);
  EXPECT_TRUE(a.visits(2));
  EXPECT_FALSE(a.visits(3));
  EXPECT_TRUE(b.visits(3));
  EXPECT_FALSE(b.visits(2));
  EXPECT_EQ(base.hops(), 1u);
}

TEST(PathTest, MembershipCountMatchesHops) {
  // Loop-free: the chain holds hops + 1 tuples, and visits() finds each
  // of their nodes and no other.
  auto p = Path::origin(5, 0);
  for (NodeId v : {7u, 9u, 11u, 13u}) p = p.extend(v, p.last_step() + 1);
  const auto seq = p.sequence();
  EXPECT_EQ(seq.size(), p.hops() + 1u);
  for (const auto& [node, step] : seq) EXPECT_TRUE(p.visits(node));
  for (NodeId v = 0; v < 16; ++v)
    EXPECT_EQ(p.visits(v), v == 5 || v == 7 || v == 9 || v == 11 || v == 13)
        << v;
}

TEST(MemberHash, PinsValuesOnWordImages) {
  // Where an entry lands in a pool's membership index, and so what each
  // probe costs, follows from this hash. The values were captured from
  // the formula; W = 1, 2 and 8 with zero and nonzero high words.
  struct Case {
    std::vector<std::uint64_t> words;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {{0}, 0x0000000000000000ull},
      {{1}, 0x9e3779bd10c6c863ull},
      {{0x8000000000000001ull}, 0x1e3779b990c6c867ull},
      {{0x00000000deadbeefull, 0}, 0x00dfed9728f2ecb5ull},
      {{0x0123456789abcdefull, 0xfedcba9876543210ull}, 0x6af73b0797e7549aull},
      {{0, 0x40ull}, 0xd611db4189b7b479ull},
      {{0x5ull, 0, 0, 0, 0, 0, 0, 0}, 0x1715609fd3ca080dull},
      {{0x0123456789abcdefull, 0xfedcba9876543210ull, 0, 0x1ull, 0, 0, 0,
        0x8000000000000000ull},
       0x7966f5cc457b662cull},
      {{0, 0, 0, 0, 0, 0, 0, 0x10ull}, 0x0001fcef7ea09599ull},
  };
  for (const Case& c : cases)
    EXPECT_EQ(detail::member_hash(c.words), c.hash)
        << "W=" << c.words.size() << " word0=" << c.words[0];
  // Trailing zero words leave the hash unchanged.
  EXPECT_EQ(detail::member_hash(std::vector<std::uint64_t>{1, 0, 0, 0}),
            detail::member_hash(std::vector<std::uint64_t>{1}));
}

TEST(MemberHash, SpreadsOverBuckets) {
  std::set<std::size_t> hashes;
  std::vector<std::uint64_t> words(32);
  for (std::uint32_t b = 0; b < 2048; ++b) {
    std::fill(words.begin(), words.end(), 0);
    words[b >> 6] = std::uint64_t{1} << (b & 63);
    hashes.insert(detail::member_hash(words));
  }
  EXPECT_EQ(hashes.size(), 2048u);
}

TEST(Enumerator, DirectContactSingleFirstPreferencePath) {
  // Source meets destination at step 0 and also node 1; node 1 meets the
  // destination later. First preference: only the direct path is valid.
  const auto g = make_graph(
      {
          Contact::make(0, 2, 0.0, 5.0),
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 0.0);
  ASSERT_EQ(total_paths(r), 1u);
  EXPECT_EQ(r.deliveries[0].hops, 1u);
  EXPECT_DOUBLE_EQ(r.deliveries[0].arrival, 10.0);
  const auto t1 = r.optimal_duration();
  ASSERT_TRUE(t1.has_value());
  EXPECT_DOUBLE_EQ(*t1, 10.0);
}

TEST(Enumerator, TwoHopChainOverTime) {
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),    // step 0
          Contact::make(1, 2, 20.0, 25.0),  // step 2
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 0.0);
  ASSERT_EQ(total_paths(r), 1u);
  const auto& d = r.deliveries[0];
  EXPECT_EQ(d.hops, 2u);
  EXPECT_DOUBLE_EQ(d.arrival, 30.0);
  const auto seq = d.path.sequence();
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0].first, 0u);
  EXPECT_EQ(seq[1].first, 1u);
  EXPECT_EQ(seq[2].first, 2u);
}

TEST(Enumerator, ZeroWeightClosureSameStep) {
  // 0-1 and 1-2 in the same step: 0 -> 1 -> 2 arrives within the step.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 0.0, 5.0),
      },
      3, 30.0);
  const auto r = run(g, 0, 2, 0.0);
  ASSERT_EQ(total_paths(r), 1u);
  EXPECT_EQ(r.deliveries[0].hops, 2u);
  EXPECT_DOUBLE_EQ(r.deliveries[0].arrival, 10.0);
}

TEST(Enumerator, TwoDisjointRelaysTwoPaths) {
  // Two relays meet the source at step 0 and the destination at step 2.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(0, 2, 0.0, 5.0),
          Contact::make(1, 3, 20.0, 25.0),
          Contact::make(2, 3, 20.0, 25.0),
      },
      4, 60.0);
  const auto r = run(g, 0, 3, 0.0);
  EXPECT_EQ(total_paths(r), 2u);
  for (const auto& d : r.deliveries) EXPECT_EQ(d.hops, 2u);
}

TEST(Enumerator, PersistentContactPoolsTimeVariants) {
  // 0-1 in contact for 3 steps, then 1 meets 2: each step of the 0-1
  // contact spawns a formally distinct path (different relay step), all
  // pooled into one delivery with count 3.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 30.0),   // steps 0,1,2
          Contact::make(1, 2, 40.0, 45.0),  // step 4
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 0.0);
  ASSERT_EQ(r.deliveries.size(), 1u);
  EXPECT_EQ(r.deliveries[0].count, 3u);
  EXPECT_EQ(total_paths(r), 3u);
}

TEST(Enumerator, LoopFreePathsOnly) {
  // Triangle active for many steps: all enumerated paths must be loop-free.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 50.0),
          Contact::make(1, 2, 0.0, 50.0),
          Contact::make(0, 2, 60.0, 65.0),
      },
      3, 100.0);
  const auto r = run(g, 0, 2, 0.0);
  for (const auto& d : r.deliveries) {
    const auto seq = d.path.sequence();
    EXPECT_TRUE(is_structurally_valid(seq, g, 0));
    EXPECT_EQ(seq.back().first, 2u);
  }
}

TEST(Enumerator, FirstPreferenceDropsHolderPaths) {
  // Node 1 receives the message at step 0, meets the destination at step 2
  // (delivers), and meets it again at step 4: the second meeting must NOT
  // produce another delivery of the same path (it was dropped).
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
          Contact::make(1, 2, 40.0, 45.0),
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 0.0);
  EXPECT_EQ(total_paths(r), 1u);
  EXPECT_DOUBLE_EQ(r.deliveries[0].arrival, 30.0);
}

TEST(Enumerator, FirstPreferenceInvalidatesThroughPaths) {
  // 0 -> 1 at step 0; 0 meets the destination at step 1 (direct delivery);
  // 1 meets the destination at step 3. The relayed path (0,1,2) contains
  // node 0, which met the destination at step 1 < step 3: not first
  // preference, so only the direct path counts.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),    // step 0
          Contact::make(0, 2, 10.0, 15.0),  // step 1
          Contact::make(1, 2, 30.0, 35.0),  // step 3
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 0.0);
  EXPECT_EQ(total_paths(r), 1u);
  EXPECT_EQ(r.deliveries[0].hops, 1u);
  EXPECT_DOUBLE_EQ(r.deliveries[0].arrival, 20.0);
}

TEST(Enumerator, ArrivalIntoDstContactNodeDeliversImmediately) {
  // 1 is in contact with the destination when it receives the message from
  // 0: minimal progress delivers through 1 in the same step.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 20.0, 25.0),
          Contact::make(1, 2, 20.0, 25.0),
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 20.0);
  ASSERT_EQ(total_paths(r), 1u);
  EXPECT_EQ(r.deliveries[0].hops, 2u);
  EXPECT_DOUBLE_EQ(r.deliveries[0].arrival, 30.0);
}

TEST(Enumerator, DestinationNeverRelays) {
  // Any path through the destination is invalid; 0 -> 2(dst) -> 1 -> ...
  // must not exist. Build: 0-2 step 0, 2-1 step 1, 1-2 step 3. The only
  // valid delivery is the direct one at step 0.
  const auto g = make_graph(
      {
          Contact::make(0, 2, 0.0, 5.0),
          Contact::make(2, 1, 10.0, 15.0),
          Contact::make(1, 2, 30.0, 35.0),
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 0.0);
  EXPECT_EQ(total_paths(r), 1u);
  EXPECT_EQ(r.deliveries[0].hops, 1u);
}

TEST(Enumerator, MessageStartAfterContactsUnreachable) {
  const auto g = make_graph({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  const auto r = run(g, 0, 1, 30.0);
  EXPECT_FALSE(r.delivered());
  EXPECT_FALSE(r.optimal_duration().has_value());
}

TEST(Enumerator, TnNonDecreasing) {
  // Dense little network; check T_n ordering on whatever arrives.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 40.0),
          Contact::make(1, 2, 10.0, 50.0),
          Contact::make(2, 3, 20.0, 60.0),
          Contact::make(0, 3, 30.0, 70.0),
          Contact::make(1, 3, 50.0, 90.0),
      },
      4, 100.0);
  const auto r = run(g, 0, 3, 0.0);
  ASSERT_TRUE(r.delivered());
  const std::uint64_t total = total_paths(r);
  double prev = 0.0;
  for (std::uint64_t i = 1; i <= total; ++i) {
    const auto ti = r.duration_of(i);
    ASSERT_TRUE(ti.has_value());
    EXPECT_GE(*ti, prev);
    prev = *ti;
  }
  EXPECT_FALSE(r.duration_of(total + 1).has_value());
}

TEST(Enumerator, ReachedKStopsEnumeration) {
  // A hub network that generates many paths quickly; with k = 4 the
  // enumeration must stop at >= 4 total paths and set reached_k.
  std::vector<Contact> cs;
  for (int step = 0; step < 8; ++step) {
    for (NodeId relay = 1; relay <= 4; ++relay) {
      cs.push_back(Contact::make(0, relay, step * 10.0, step * 10.0 + 5.0));
      cs.push_back(
          Contact::make(relay, 5, step * 10.0 + 0.1, step * 10.0 + 5.0));
    }
  }
  const auto g = make_graph(std::move(cs), 6, 100.0);
  const auto r = run(g, 0, 5, 0.0, 4);
  EXPECT_TRUE(r.reached_k);
  EXPECT_GE(total_paths(r), 4u);
  EXPECT_TRUE(r.time_to_explosion(4).has_value());
}

TEST(Enumerator, TimeToExplosionComputation) {
  // First path through relay 1 arrives at t=20 (step 1); two more through
  // relays 2 and 3 arrive at t=50 (step 4): TE for k=3 is 30.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),    // step 0
          Contact::make(1, 4, 10.0, 15.0),  // step 1: first delivery
          Contact::make(0, 2, 20.0, 25.0),  // step 2
          Contact::make(0, 3, 20.0, 25.0),  // step 2
          Contact::make(2, 4, 40.0, 45.0),  // step 4
          Contact::make(3, 4, 40.0, 45.0),  // step 4
      },
      5, 60.0);
  const auto r = run(g, 0, 4, 0.0, 3);
  ASSERT_TRUE(r.reached_k);
  const auto t1 = r.optimal_duration();
  ASSERT_TRUE(t1.has_value());
  EXPECT_DOUBLE_EQ(*t1, 20.0);
  const auto te = r.time_to_explosion(3);
  ASSERT_TRUE(te.has_value());
  EXPECT_DOUBLE_EQ(*te, 30.0);
}

TEST(Enumerator, DeliveriesSortedByHopsWithinStep) {
  // Direct path and 2-hop path arrive in the same step; shorter first.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),    // step 0: reach relay
          Contact::make(0, 2, 10.0, 15.0),  // step 1: direct
          Contact::make(1, 2, 10.0, 15.0),  // step 1: via relay
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 0.0);
  ASSERT_EQ(r.deliveries.size(), 2u);
  EXPECT_LE(r.deliveries[0].hops, r.deliveries[1].hops);
  EXPECT_EQ(r.deliveries[0].hops, 1u);
  EXPECT_EQ(r.deliveries[1].hops, 2u);
}

TEST(Enumerator, RecordPathsOffStillCounts) {
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
      },
      3, 60.0);
  EnumeratorConfig config;
  config.k = 2000;
  config.record_paths = false;
  const auto r = KPathEnumerator(g, config).enumerate(0, 2, 0.0);
  ASSERT_EQ(total_paths(r), 1u);
  EXPECT_FALSE(r.deliveries[0].path.valid());
  EXPECT_EQ(r.deliveries[0].hops, 2u);
}

TEST(Enumerator, RejectsBadArguments) {
  const auto g = make_graph({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  const KPathEnumerator e(g);
  EXPECT_THROW((void)e.enumerate(0, 0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)e.enumerate(0, 9, 0.0), std::invalid_argument);
  EXPECT_THROW((void)KPathEnumerator(g, EnumeratorConfig{0, true}),
               std::invalid_argument);
}

TEST(Enumerator, AllRecordedPathsStructurallyValid) {
  // Random-ish handmade mess; every recorded path must validate.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 35.0),
          Contact::make(1, 2, 5.0, 45.0),
          Contact::make(2, 3, 12.0, 50.0),
          Contact::make(3, 4, 22.0, 60.0),
          Contact::make(0, 4, 41.0, 44.0),
          Contact::make(1, 4, 55.0, 80.0),
          Contact::make(2, 4, 61.0, 62.0),
      },
      5, 100.0);
  const auto r = run(g, 0, 4, 0.0);
  ASSERT_TRUE(r.delivered());
  for (const auto& d : r.deliveries) {
    const auto seq = d.path.sequence();
    EXPECT_TRUE(is_structurally_valid(seq, g, 0)) << "hops=" << d.hops;
    EXPECT_EQ(seq.back().first, 4u);
    EXPECT_EQ(seq.size(), static_cast<std::size_t>(d.hops) + 1u);
  }
}

TEST(Enumerator, KOneStopsAtFirstDelivery) {
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
          Contact::make(0, 2, 40.0, 45.0),
      },
      3, 60.0);
  const auto r = run(g, 0, 2, 0.0, 1);
  EXPECT_TRUE(r.reached_k);
  EXPECT_EQ(total_paths(r), 1u);
  EXPECT_DOUBLE_EQ(r.deliveries[0].arrival, 30.0);  // via relay, step 2.
}

TEST(Enumerator, MessageAtLastStepStillWorks) {
  const auto g = make_graph(
      {
          Contact::make(0, 1, 50.0, 59.0),  // final step
      },
      2, 60.0);
  const auto r = run(g, 0, 1, 55.0);
  ASSERT_TRUE(r.delivered());
  EXPECT_DOUBLE_EQ(r.deliveries[0].arrival, 60.0);
}

TEST(Enumerator, SameMessageEnumeratedTwiceIsIdentical) {
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 35.0),
          Contact::make(1, 2, 5.0, 45.0),
          Contact::make(0, 3, 12.0, 50.0),
          Contact::make(3, 2, 22.0, 60.0),
      },
      4, 100.0);
  EnumeratorConfig config;
  config.k = 100;
  const KPathEnumerator e(g, config);
  const auto a = e.enumerate(0, 2, 0.0);
  const auto b = e.enumerate(0, 2, 0.0);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.deliveries[i].arrival, b.deliveries[i].arrival);
    EXPECT_EQ(a.deliveries[i].hops, b.deliveries[i].hops);
    EXPECT_EQ(a.deliveries[i].count, b.deliveries[i].count);
  }
}

TEST(Enumerator, GrowthCumulativeNonDecreasing) {
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 30.0),
          Contact::make(1, 2, 10.0, 50.0),
          Contact::make(2, 3, 20.0, 70.0),
          Contact::make(1, 3, 60.0, 90.0),
      },
      4, 100.0);
  const auto r = run(g, 0, 3, 0.0, 50);
  ASSERT_TRUE(r.delivered());
  const auto rec = make_explosion_record(r, 50);
  std::uint64_t prev = 0;
  double prev_offset = -1.0;
  for (const auto& gp : rec.growth) {
    EXPECT_GE(gp.cumulative, prev);
    EXPECT_GT(gp.offset, prev_offset);
    prev = gp.cumulative;
    prev_offset = gp.offset;
  }
}

// Bit-identical semantic comparison of two enumeration outcomes.
// steps_replayed is excluded: it legitimately differs between replay
// modes (kDense also visits contact-free steps).
void expect_identical(const EnumerationResult& a, const EnumerationResult& b) {
  EXPECT_EQ(a.reached_k, b.reached_k);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].arrival, b.deliveries[i].arrival);
    EXPECT_EQ(a.deliveries[i].step, b.deliveries[i].step);
    EXPECT_EQ(a.deliveries[i].hops, b.deliveries[i].hops);
    EXPECT_EQ(a.deliveries[i].count, b.deliveries[i].count);
    EXPECT_EQ(a.deliveries[i].path.valid(), b.deliveries[i].path.valid());
    if (a.deliveries[i].path.valid()) {
      EXPECT_EQ(a.deliveries[i].path.sequence(),
                b.deliveries[i].path.sequence());
    }
  }
  EXPECT_EQ(a.effort.contact_events, b.effort.contact_events);
  EXPECT_EQ(a.effort.peak_stored_paths, b.effort.peak_stored_paths);
  EXPECT_EQ(a.effort.truncated_candidates, b.effort.truncated_candidates);
}

// A two-burst trace separated by a long contact-free gap: the sparse
// replay must skip the silence without changing anything.
graph::SpaceTimeGraph gap_graph() {
  std::vector<Contact> cs;
  for (const double base : {0.0, 5000.0}) {
    cs.push_back(Contact::make(0, 1, base + 0.0, base + 15.0));
    cs.push_back(Contact::make(1, 2, base + 10.0, base + 25.0));
    cs.push_back(Contact::make(2, 3, base + 20.0, base + 35.0));
    cs.push_back(Contact::make(0, 3, base + 40.0, base + 46.0));
  }
  return make_graph(std::move(cs), 4, 10000.0);
}

TEST(Enumerator, SparseMatchesDenseAcrossGaps) {
  const auto g = gap_graph();
  ASSERT_GT(g.num_steps(), 900u);
  ASSERT_LT(g.num_active_steps(), 20u);
  for (const NodeId dst : {1u, 2u, 3u}) {
    for (const double t0 : {0.0, 30.0, 2000.0, 5005.0}) {
      EnumeratorConfig sparse;
      sparse.record_paths = true;
      EnumeratorConfig dense = sparse;
      dense.replay = ReplayMode::kDense;
      const auto a = KPathEnumerator(g, sparse).enumerate(0, dst, t0);
      const auto b = KPathEnumerator(g, dense).enumerate(0, dst, t0);
      expect_identical(a, b);
      // The sparse replay never visits more steps than the timeline has;
      // the dense oracle walks the whole remaining window.
      EXPECT_LE(a.effort.steps_replayed, g.num_active_steps());
      EXPECT_GE(b.effort.steps_replayed, a.effort.steps_replayed);
    }
  }
}

TEST(Enumerator, WorkspaceHistoryCannotInfluenceResults) {
  // Drag one workspace through messages on *different graphs* and compare
  // every call against the same call on a fresh workspace: bit-identical
  // output is required — this is what makes the parallel path sweep
  // independent of which thread's (warm) workspace a message lands on.
  // The graphs span membership strides W = 1 (the tiny traces), 2
  // (conference_small, 98 nodes) and 8 (campus_512), visited growing and
  // then shrinking, and path recording flips on every call, so stale
  // arena words, indexes and representatives of either stride or mode
  // would all show.
  const auto gap = gap_graph();
  const auto other = make_graph(
      {
          Contact::make(0, 1, 0.0, 40.0),
          Contact::make(1, 2, 10.0, 50.0),
          Contact::make(2, 3, 20.0, 60.0),
          Contact::make(0, 3, 30.0, 70.0),
          Contact::make(1, 3, 50.0, 90.0),
          Contact::make(4, 5, 0.0, 90.0),
          Contact::make(3, 4, 35.0, 80.0),
      },
      6, 100.0);
  auto& cache = engine::ScenarioContextCache::instance();
  const auto conference =
      cache.acquire(engine::make_scenario_by_name("conference_small"));
  const auto campus =
      cache.acquire(engine::make_scenario_by_name("campus_512"));

  struct Call {
    const graph::SpaceTimeGraph* graph;
    MessageSpec message;
    std::size_t k;
  };
  std::vector<Call> calls;
  const auto add_sample = [&calls](const engine::ScenarioContext& context,
                                   std::size_t count, std::size_t k,
                                   std::uint64_t seed) {
    for (const MessageSpec& m : core::uniform_message_sample(
             context.dataset->trace.num_nodes(), count,
             context.dataset->message_horizon, seed))
      calls.push_back({context.graph.get(), m, k});
  };
  for (const NodeId src : {0u, 1u, 4u}) {
    for (const NodeId dst : {2u, 3u, 5u}) {
      if (src != dst) calls.push_back({&other, {src, dst, 0.0}, 25});
    }
  }
  calls.push_back({&gap, {2, 1, 4990.0}, 25});
  add_sample(*conference, 4, 300, 5);
  add_sample(*campus, 4, 40, 6);
  add_sample(*conference, 3, 300, 7);
  calls.push_back({&gap, {0, 3, 0.0}, 25});
  calls.push_back({&other, {1, 5, 0.0}, 25});
  ASSERT_EQ(conference->graph->num_nodes(), 98u);
  ASSERT_GE(campus->graph->num_nodes(), 449u);  // >= 8 words per set.

  EnumeratorWorkspace dirty;
  bool record_paths = true;
  for (const Call& call : calls) {
    EnumeratorConfig config;
    config.k = call.k;
    config.record_paths = record_paths;
    const KPathEnumerator enumerator(*call.graph, config);
    const MessageSpec& m = call.message;
    EnumeratorWorkspace fresh;
    const auto reference =
        enumerator.enumerate(m.source, m.destination, m.t_start, fresh);
    const auto warmed =
        enumerator.enumerate(m.source, m.destination, m.t_start, dirty);
    SCOPED_TRACE(testing::Message()
                 << call.graph->num_nodes() << " nodes, " << m.source
                 << " -> " << m.destination << " at " << m.t_start
                 << ", record_paths " << record_paths);
    expect_identical(reference, warmed);
    EXPECT_EQ(reference.effort.steps_replayed, warmed.effort.steps_replayed);
    record_paths = !record_paths;
  }
}

TEST(Enumerator, MembershipStrideDoesNotChangeResults) {
  // Membership sets take W = ceil(nodes / 64) words. Stretching node ids
  // by an increasing map keeps every id-ordered walk (active nodes,
  // adjacency, trace order) the same, so the stretched trace must
  // enumerate exactly like the original: a W = 1 population of 48 nodes
  // against W = 2 and W = 8 copies. Stride arithmetic is invisible at
  // W = 1, so the original is the reference; a small k makes trims,
  // purges and admission budgets fire on wide members.
  constexpr NodeId kNodes = 48;
  synth::ConferenceConfig gen;
  gen.mobile_nodes = kNodes;
  gen.stationary_nodes = 0;
  gen.t_max = 2700.0;
  gen.mean_node_rate = 0.08;
  gen.gaps = synth::GapModel::exponential;
  gen.scan_interval = 0.0;
  gen.seed = 21;
  const ContactTrace base = synth::generate_conference(gen).trace;
  const graph::SpaceTimeGraph base_graph(base, 10.0);
  const auto messages =
      core::uniform_message_sample(kNodes, 12, 1800.0, 23);

  EnumeratorConfig config;
  config.k = 30;
  config.record_paths = true;
  const KPathEnumerator on_base(base_graph, config);
  std::vector<EnumerationResult> reference;
  reference.reserve(messages.size());
  std::uint64_t truncated = 0;
  std::size_t delivered = 0;
  for (const MessageSpec& m : messages) {
    reference.push_back(on_base.enumerate(m.source, m.destination, m.t_start));
    truncated += reference.back().effort.truncated_candidates;
    delivered += reference.back().reached_k ? 1 : 0;
  }
  ASSERT_GT(truncated, 0u);
  ASSERT_GT(delivered, messages.size() / 2);

  for (const NodeId scale : {2u, 10u}) {
    const auto stretch = [scale](NodeId v) { return v * scale; };
    std::vector<Contact> cs;
    for (const Contact& c : base.contacts())
      cs.push_back(Contact::make(stretch(c.a), stretch(c.b), c.start, c.end));
    const graph::SpaceTimeGraph g(
        ContactTrace(std::move(cs), kNodes * scale, base.t_max()), 10.0);
    const KPathEnumerator on_stretched(g, config);
    EnumeratorWorkspace workspace;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      const MessageSpec& m = messages[i];
      SCOPED_TRACE(testing::Message() << "scale " << scale << ", message "
                                      << i);
      const auto r = on_stretched.enumerate(
          stretch(m.source), stretch(m.destination), m.t_start, workspace);
      const EnumerationResult& want = reference[i];
      EXPECT_EQ(r.reached_k, want.reached_k);
      EXPECT_EQ(r.effort.steps_replayed, want.effort.steps_replayed);
      EXPECT_EQ(r.effort.contact_events, want.effort.contact_events);
      EXPECT_EQ(r.effort.peak_stored_paths, want.effort.peak_stored_paths);
      EXPECT_EQ(r.effort.truncated_candidates,
                want.effort.truncated_candidates);
      ASSERT_EQ(r.deliveries.size(), want.deliveries.size());
      for (std::size_t d = 0; d < r.deliveries.size(); ++d) {
        EXPECT_EQ(r.deliveries[d].step, want.deliveries[d].step);
        EXPECT_EQ(r.deliveries[d].hops, want.deliveries[d].hops);
        EXPECT_EQ(r.deliveries[d].count, want.deliveries[d].count);
        ASSERT_EQ(r.deliveries[d].path.valid(),
                  want.deliveries[d].path.valid());
        if (!want.deliveries[d].path.valid()) continue;
        auto expected = want.deliveries[d].path.sequence();
        for (auto& hop : expected) hop.first = stretch(hop.first);
        EXPECT_EQ(r.deliveries[d].path.sequence(), expected);
      }
    }
  }
}

TEST(Enumerator, HugeKMatchesUnreachedK) {
  // On a trace where k is never reached, any larger k must give the same
  // outcome: the per-step admission budget (2k, capped) and the per-step
  // record cap (4k) may not wrap around for k near the top of size_t.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 35.0),
          Contact::make(1, 2, 5.0, 45.0),
          Contact::make(2, 3, 12.0, 50.0),
          Contact::make(3, 4, 22.0, 60.0),
          Contact::make(0, 4, 41.0, 44.0),
          Contact::make(1, 4, 55.0, 80.0),
          Contact::make(2, 4, 61.0, 62.0),
      },
      5, 100.0);
  const auto reference = run(g, 0, 4, 0.0, 2000);
  ASSERT_FALSE(reference.reached_k);
  ASSERT_GT(reference.deliveries.size(), 1u);
  for (const std::size_t k : {std::size_t{1} << 40, std::size_t{1} << 62,
                              std::size_t{1} << 63}) {
    SCOPED_TRACE(testing::Message() << "k = " << k);
    const auto huge = run(g, 0, 4, 0.0, k);
    expect_identical(reference, huge);
    for (const auto& d : huge.deliveries) EXPECT_TRUE(d.path.valid());
  }
}

TEST(Enumerator, EffortCountsTruncationAndPeakStorage) {
  // A hub network generating many same-length paths with a tiny k: the
  // per-node k-truncation must reject candidates, and the peak storage
  // must exceed the trivial origin entry.
  std::vector<Contact> cs;
  for (int step = 0; step < 8; ++step) {
    for (NodeId relay = 1; relay <= 4; ++relay) {
      cs.push_back(Contact::make(0, relay, step * 10.0, step * 10.0 + 5.0));
      for (NodeId peer = relay + 1; peer <= 4; ++peer)
        cs.push_back(
            Contact::make(relay, peer, step * 10.0, step * 10.0 + 5.0));
    }
  }
  const auto g = make_graph(std::move(cs), 6, 100.0);
  const auto r = run(g, 0, 5, 0.0, 2);  // k = 2, destination never met.
  EXPECT_FALSE(r.delivered());
  EXPECT_GT(r.effort.truncated_candidates, 0u);
  EXPECT_GT(r.effort.peak_stored_paths, 1u);
  EXPECT_GT(r.effort.contact_events, 0u);
  EXPECT_GT(r.effort.steps_replayed, 0u);
}

TEST(Enumerator, EffortStepsReplayedBoundedByTimeline) {
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 500.0, 505.0),
      },
      3, 1000.0);
  const auto r = run(g, 0, 2, 0.0);
  ASSERT_TRUE(r.delivered());
  // Two active steps, and enumeration ends early once nothing is stored.
  EXPECT_LE(r.effort.steps_replayed, g.num_active_steps());
  EXPECT_EQ(r.effort.contact_events, 2u);
}

// The per-node trim keeps what a sort by (hops descending, position
// descending) that sheds total - k from its front keeps: the reference
// below is that sort, detail::TrimCut the enumerator's cut, applied in
// merged order as settle_node applies it.
std::vector<std::uint64_t> kept_by_sort(const std::vector<std::uint16_t>& hops,
                                        std::vector<std::uint64_t> mult,
                                        std::uint64_t k) {
  std::vector<std::size_t> order(hops.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&hops](std::size_t l, std::size_t r) {
    if (hops[l] != hops[r]) return hops[l] > hops[r];
    return l > r;
  });
  std::uint64_t excess =
      std::accumulate(mult.begin(), mult.end(), std::uint64_t{0}) - k;
  for (const std::size_t i : order) {
    const std::uint64_t cut = std::min(excess, mult[i]);
    mult[i] -= cut;
    excess -= cut;
  }
  return mult;
}

std::vector<std::uint64_t> kept_by_cut(const std::vector<std::uint16_t>& hops,
                                       const std::vector<std::uint64_t>& mult,
                                       std::uint64_t k) {
  std::vector<std::uint64_t> levels;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i] >= levels.size()) levels.resize(hops[i] + 1u, 0);
    levels[hops[i]] += mult[i];
    total += mult[i];
  }
  detail::TrimCut cut(levels, total - k);
  std::vector<std::uint64_t> kept;
  for (std::size_t i = 0; i < hops.size(); ++i)
    kept.push_back(cut.keep(hops[i], mult[i]));
  return kept;
}

TEST(TrimCut, KeepsWhatTheSortKept) {
  struct Case {
    const char* name;
    std::vector<std::uint16_t> hops;
    std::vector<std::uint64_t> mult;
    std::uint64_t k;
  };
  const std::vector<Case> cases = {
      {"one hop level", {3, 3, 3, 3}, {2, 5, 1, 4}, 7},
      // Levels 3 and 2 total 6 and 7: excess 6 sheds level 3 whole,
      // excess 13 levels 3 and 2.
      {"excess is one level", {1, 2, 3, 3, 2}, {4, 3, 5, 1, 4}, 11},
      {"excess is two levels", {1, 2, 3, 3, 2}, {4, 3, 5, 1, 4}, 4},
      // Level 4 holds 3 paths and the cut level 2 holds 10, in entries 1, 3
      // and 5: keeping 2 of them cuts entry 1, keeping 9 cuts entry 5.
      {"cut on the level's first entry", {1, 2, 4, 2, 1, 2}, {2, 5, 3, 3, 1, 2},
       5},
      {"cut on the level's last entry", {1, 2, 4, 2, 1, 2}, {2, 5, 3, 3, 1, 2},
       12},
      {"empty levels between", {7, 1, 4, 7, 1, 4}, {3, 2, 6, 1, 2, 2}, 9},
      {"k = 1", {2, 0, 1, 1}, {3, 1, 2, 2}, 1},
      {"k = 1, shortest level not first", {2, 1, 1}, {3, 2, 2}, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(kept_by_cut(c.hops, c.mult, c.k), kept_by_sort(c.hops, c.mult, c.k));
  }

  util::Rng rng(0x7219);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(40);
    const std::uint64_t top = 1 + rng.uniform_index(12);
    std::vector<std::uint16_t> hops(n);
    std::vector<std::uint64_t> mult(n);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      hops[i] = static_cast<std::uint16_t>(rng.uniform_index(top));
      mult[i] = 1 + rng.uniform_index(trial % 2 == 0 ? 3 : 500);
      total += mult[i];
    }
    if (total < 2) continue;
    const std::uint64_t k = 1 + rng.uniform_index(total - 1);  // < total.
    SCOPED_TRACE(testing::Message() << "trial " << trial << ", k = " << k);
    ASSERT_EQ(kept_by_cut(hops, mult, k), kept_by_sort(hops, mult, k));
  }
}

TEST(StructuralValidity, DetectsViolations) {
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
      },
      3, 60.0);
  // Valid chain.
  EXPECT_TRUE(is_structurally_valid({{0, 0}, {1, 0}, {2, 2}}, g, 0));
  // Wrong source.
  EXPECT_FALSE(is_structurally_valid({{1, 0}, {0, 0}}, g, 0));
  // Missing contact.
  EXPECT_FALSE(is_structurally_valid({{0, 0}, {2, 0}}, g, 0));
  // Time reversal.
  EXPECT_FALSE(is_structurally_valid({{0, 2}, {1, 0}}, g, 0));
  // Repeated node.
  EXPECT_FALSE(
      is_structurally_valid({{0, 0}, {1, 0}, {0, 0}}, g, 0));
  // Empty.
  EXPECT_FALSE(is_structurally_valid({}, g, 0));
}

}  // namespace
}  // namespace psn::paths
