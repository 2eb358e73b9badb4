// Tests for psn::util: the Rng engine and the dynamic node set.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "psn/util/node_set.hpp"
#include "psn/util/rng.hpp"

namespace psn::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(17);
  constexpr std::uint64_t n = 7;
  std::vector<int> counts(n, 0);
  constexpr int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(n)];
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c), draws / static_cast<double>(n),
                draws * 0.01);
}

TEST(Rng, UniformIndexOneAlwaysZero) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(23);
  const double rate = 0.25;
  double sum = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(43);
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(59);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(NodeSet, EmptyByDefault) {
  NodeSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  for (std::uint32_t b = 0; b < 128; ++b) EXPECT_FALSE(s.test(b));
  // Probing past the backing storage is safe and false.
  EXPECT_FALSE(s.test(100000));
}

TEST(NodeSet, SetTestResetAcrossWordBoundaries) {
  NodeSet s(1000);
  for (std::uint32_t b : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 511u, 999u}) {
    s.set(b);
    EXPECT_TRUE(s.test(b));
  }
  EXPECT_EQ(s.count(), 9u);
  s.reset(64);
  EXPECT_FALSE(s.test(64));
  s.reset(511);
  EXPECT_FALSE(s.test(511));
  EXPECT_EQ(s.count(), 7u);
  // Resetting beyond storage is a no-op.
  s.reset(100000);
  EXPECT_EQ(s.count(), 7u);
}

TEST(NodeSet, SingleFactory) {
  const auto s = NodeSet::single(97);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(s.test(97));
  const auto big = NodeSet::single(2048, 1733);
  EXPECT_EQ(big.count(), 1u);
  EXPECT_TRUE(big.test(1733));
}

TEST(NodeSet, GrowsOnDemandBeyondConstructionCapacity) {
  NodeSet s(64);
  s.set(700);  // far past the declared capacity
  EXPECT_TRUE(s.test(700));
  s.set(3);
  EXPECT_EQ(s.count(), 2u);
}

TEST(NodeSet, UnionAndIntersection) {
  NodeSet a(256);
  a.set(3);
  a.set(70);
  a.set(200);
  NodeSet b(256);
  b.set(70);
  b.set(100);
  b.set(200);
  const auto u = a | b;
  EXPECT_EQ(u.count(), 4u);
  const auto i = a & b;
  EXPECT_EQ(i.count(), 2u);
  EXPECT_TRUE(i.test(70));
  EXPECT_TRUE(i.test(200));
  EXPECT_EQ(a.intersect_count(b), 2u);
  NodeSet c;
  c.set(5);
  EXPECT_EQ(a.intersect_count(c), 0u);
}

TEST(NodeSet, EqualityAndHashIgnoreCapacity) {
  NodeSet a(64);
  a.set(5);
  a.set(99);
  NodeSet b(4096);
  b.set(99);
  b.set(5);
  // Same members, very different backing storage: equal, equal hashes.
  EXPECT_EQ(a, b);
  EXPECT_EQ(NodeSetHash{}(a), NodeSetHash{}(b));
  b.set(1);
  EXPECT_NE(a, b);
}

TEST(NodeSet, HashSpreadsOverBuckets) {
  std::set<std::size_t> hashes;
  for (std::uint32_t b = 0; b < 2048; ++b)
    hashes.insert(NodeSetHash{}(NodeSet::single(b)));
  EXPECT_EQ(hashes.size(), 2048u);
}

TEST(NodeSet, CopyAndMoveSemantics) {
  NodeSet big(1024);
  big.set(7);
  big.set(900);
  NodeSet copy = big;
  EXPECT_EQ(copy, big);
  copy.set(11);
  EXPECT_FALSE(big.test(11));  // deep copy

  NodeSet moved = std::move(copy);
  EXPECT_TRUE(moved.test(900));
  EXPECT_TRUE(moved.test(11));
  // Moved-from set is valid and empty.
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  copy.set(2);
  EXPECT_EQ(copy.count(), 1u);
}

// The load-bearing property test: NodeSet against a std::set<NodeId>
// reference model across word boundaries — set/reset/test, or/and, count,
// and ascending iteration must all agree under random op sequences.
TEST(NodeSet, MatchesReferenceModelUnderRandomOps) {
  Rng rng(0xDECADE);
  for (const std::uint32_t capacity :
       {30u, 63u, 64u, 65u, 127u, 128u, 129u, 192u, 320u, 1000u, 2048u}) {
    NodeSet s(capacity);
    std::set<std::uint32_t> ref;
    for (int op = 0; op < 3000; ++op) {
      const auto bit = static_cast<std::uint32_t>(rng.uniform_index(capacity));
      switch (rng.uniform_index(4)) {
        case 0:
        case 1:  // bias toward set so the sets fill up
          s.set(bit);
          ref.insert(bit);
          break;
        case 2:
          s.reset(bit);
          ref.erase(bit);
          break;
        case 3:
          ASSERT_EQ(s.test(bit), ref.contains(bit))
              << "capacity=" << capacity << " bit=" << bit;
          break;
      }
      if (op % 500 == 0) {
        ASSERT_EQ(s.count(), ref.size()) << "capacity=" << capacity;
        ASSERT_EQ(s.empty(), ref.empty());
      }
    }
    // Full-membership check and ascending iteration.
    ASSERT_EQ(s.count(), ref.size()) << "capacity=" << capacity;
    std::vector<std::uint32_t> iterated;
    s.for_each([&](std::uint32_t b) { iterated.push_back(b); });
    ASSERT_EQ(iterated, std::vector<std::uint32_t>(ref.begin(), ref.end()))
        << "capacity=" << capacity;

    // Union / intersection against the model, with a second random set of
    // a *different* capacity so mixed-width operands are exercised.
    const std::uint32_t other_capacity = capacity / 2 + 17;
    NodeSet t(other_capacity);
    std::set<std::uint32_t> tref;
    for (int i = 0; i < 200; ++i) {
      const auto bit =
          static_cast<std::uint32_t>(rng.uniform_index(other_capacity));
      t.set(bit);
      tref.insert(bit);
    }
    std::set<std::uint32_t> uref;
    std::set_union(ref.begin(), ref.end(), tref.begin(), tref.end(),
                   std::inserter(uref, uref.begin()));
    std::set<std::uint32_t> iref;
    std::set_intersection(ref.begin(), ref.end(), tref.begin(), tref.end(),
                          std::inserter(iref, iref.begin()));
    const NodeSet u = s | t;
    const NodeSet i = s & t;
    ASSERT_EQ(u.count(), uref.size()) << "capacity=" << capacity;
    ASSERT_EQ(i.count(), iref.size()) << "capacity=" << capacity;
    ASSERT_EQ(s.intersect_count(t), iref.size());
    std::vector<std::uint32_t> umembers;
    u.for_each([&](std::uint32_t b) { umembers.push_back(b); });
    ASSERT_EQ(umembers, std::vector<std::uint32_t>(uref.begin(), uref.end()));
    std::vector<std::uint32_t> imembers;
    i.for_each([&](std::uint32_t b) { imembers.push_back(b); });
    ASSERT_EQ(imembers, std::vector<std::uint32_t>(iref.begin(), iref.end()));

    // In-place variants agree with the functional ones.
    NodeSet su = s;
    su |= t;
    EXPECT_EQ(su, u);
    NodeSet si = s;
    si &= t;
    EXPECT_EQ(si, i);
  }
}

TEST(NodeSet, WordOpsMatchPerBitOracle) {
  // The scalar flood kernel reads sets through word / count /
  // intersect_count. Drive them with random word images across
  // capacities straddling the inline-2-word boundary and check every one
  // against per-bit arithmetic.
  Rng rng(2026);
  for (const std::uint32_t capacity : {64u, 127u, 128u, 129u, 192u, 1024u}) {
    const std::uint32_t words = (capacity + 63) / 64;
    const std::uint64_t last_mask =
        (capacity % 64) ? ((std::uint64_t{1} << (capacity % 64)) - 1)
                        : ~std::uint64_t{0};
    for (int round = 0; round < 16; ++round) {
      std::vector<std::uint64_t> aw(words), bw(words);
      for (std::uint32_t w = 0; w < words; ++w) {
        aw[w] = rng();
        bw[w] = rng();
      }
      aw[words - 1] &= last_mask;
      bw[words - 1] &= last_mask;

      NodeSet a(capacity), b(capacity);
      for (std::uint32_t bit = 0; bit < capacity; ++bit) {
        if ((aw[bit >> 6] >> (bit & 63)) & 1U) a.set(bit);
        if ((bw[bit >> 6] >> (bit & 63)) & 1U) b.set(bit);
      }

      unsigned expected_count = 0, expected_intersect = 0;
      for (std::uint32_t w = 0; w < words; ++w) {
        ASSERT_EQ(a.word(w), aw[w]);
        ASSERT_EQ(b.word(w), bw[w]);
        expected_count +=
            static_cast<unsigned>(std::popcount(aw[w]));
        expected_intersect +=
            static_cast<unsigned>(std::popcount(aw[w] & bw[w]));
      }
      EXPECT_EQ(a.count(), expected_count);
      EXPECT_EQ(a.intersect_count(b), expected_intersect);
      for (std::uint32_t bit = 0; bit < capacity; ++bit)
        ASSERT_EQ(a.test(bit), ((aw[bit >> 6] >> (bit & 63)) & 1U) != 0);

      // The scalar kernel's spread: the union lands on the per-bit union.
      NodeSet joined = a;
      joined |= b;
      for (std::uint32_t w = 0; w < words; ++w)
        ASSERT_EQ(joined.word(w), aw[w] | bw[w]);
    }
  }
}

TEST(NodeSet, InlineHeapBoundaryAt128Bits) {
  // Bit 127 is the last inline bit; bit 128 forces the heap spill.
  // Holder sets and path memberships rely on the spill preserving
  // content, and on equality and hashing ignoring backing capacity.
  NodeSet s(128);
  EXPECT_EQ(s.num_words(), NodeSet::kInlineWords);
  s.set(0);
  s.set(127);
  EXPECT_EQ(s.num_words(), NodeSet::kInlineWords);

  NodeSet grown = s;
  grown.set(128);
  EXPECT_GT(grown.num_words(), NodeSet::kInlineWords);
  EXPECT_TRUE(grown.test(0));
  EXPECT_TRUE(grown.test(127));
  EXPECT_TRUE(grown.test(128));

  grown.reset(128);
  EXPECT_EQ(grown, s);  // capacity is not part of the value.
  EXPECT_EQ(NodeSetHash{}(grown), NodeSetHash{}(s));
  EXPECT_EQ(grown.word(2), 0u);
  EXPECT_EQ(s.word(2), 0u);  // reads beyond storage are zero, not UB.

  // ensure_capacity pre-sizing (the flood kernels' no-realloc
  // guarantee): growing first, then setting bits up to the capacity,
  // keeps the storage stable.
  NodeSet pre(64);
  pre.ensure_capacity(1024);
  const std::uint32_t sized = pre.num_words();
  EXPECT_GE(sized, 16u);
  for (std::uint32_t w = 0; w < 16; ++w) pre.set(w * 64);
  EXPECT_EQ(pre.num_words(), sized);
  EXPECT_EQ(pre.count(), 16u);
}

}  // namespace
}  // namespace psn::util
