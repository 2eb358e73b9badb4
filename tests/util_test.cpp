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
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.num_words(), 0u);
  for (std::uint32_t b = 0; b < 128; ++b) EXPECT_FALSE(s.test(b));
  // Probing past the words is safe and false.
  EXPECT_FALSE(s.test(100000));
  EXPECT_EQ(s.word(7), 0u);
}

TEST(NodeSet, SetTestResetAcrossWordBoundaries) {
  NodeSet s;
  s.ensure_capacity(1000);
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
  // Resetting beyond the words is a no-op.
  s.reset(100000);
  EXPECT_EQ(s.count(), 7u);
}

TEST(NodeSet, GrowsOnDemandBeyondCapacity) {
  NodeSet s;
  s.ensure_capacity(64);
  s.set(700);  // far past the pre-sized capacity
  EXPECT_TRUE(s.test(700));
  EXPECT_EQ(s.num_words(), 11u);
  s.set(3);
  EXPECT_EQ(s.count(), 2u);
}

TEST(NodeSet, UnionAndIntersectionCount) {
  NodeSet a;
  a.set(3);
  a.set(70);
  a.set(200);
  NodeSet b;
  b.set(70);
  b.set(100);
  b.set(200);
  EXPECT_EQ(a.intersect_count(b), 2u);
  a |= b;
  EXPECT_EQ(a.count(), 4u);
  EXPECT_TRUE(a.test(100));
  NodeSet c;
  c.set(5);
  EXPECT_EQ(a.intersect_count(c), 0u);
}

// The load-bearing property test: NodeSet against a std::set<NodeId>
// reference model across word boundaries. Every operation the set has
// (set, reset, test, count, word, for_each, |=, intersect_count, clear)
// must agree with the model under random op sequences, with |= and
// intersect_count taking operands of different widths both ways round.
TEST(NodeSet, MatchesReferenceModelUnderRandomOps) {
  const auto members = [](const NodeSet& s) {
    std::vector<std::uint32_t> out;
    s.for_each([&](std::uint32_t b) { out.push_back(b); });
    return out;
  };
  const auto listed = [](const std::set<std::uint32_t>& ref) {
    return std::vector<std::uint32_t>(ref.begin(), ref.end());
  };
  const auto word_of = [](const std::set<std::uint32_t>& ref,
                          std::uint32_t w) {
    std::uint64_t word = 0;
    for (const std::uint32_t b : ref)
      if (b >> 6 == w) word |= std::uint64_t{1} << (b & 63);
    return word;
  };
  Rng rng(0xDECADE);
  for (const std::uint32_t capacity :
       {30u, 63u, 64u, 65u, 127u, 128u, 129u, 192u, 320u, 1000u, 2048u}) {
    // Odd capacities pre-size the words; even ones grow on demand.
    NodeSet s;
    if (capacity % 2 == 1) s.ensure_capacity(capacity);
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
      }
    }
    // Full-membership check, ascending iteration and the word view
    // (including words past the storage, which read as zero).
    ASSERT_EQ(s.count(), ref.size()) << "capacity=" << capacity;
    ASSERT_EQ(members(s), listed(ref)) << "capacity=" << capacity;
    for (std::uint32_t w = 0; w < s.num_words() + 2; ++w)
      ASSERT_EQ(s.word(w), word_of(ref, w)) << "capacity=" << capacity;

    // Union and intersection count against the model, with a second
    // random set of a *different* width.
    const std::uint32_t other_capacity = capacity / 2 + 17;
    NodeSet t;
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
    ASSERT_EQ(s.intersect_count(t), iref.size()) << "capacity=" << capacity;
    ASSERT_EQ(t.intersect_count(s), iref.size()) << "capacity=" << capacity;
    NodeSet wide = s;
    wide |= t;
    ASSERT_EQ(members(wide), listed(uref)) << "capacity=" << capacity;
    NodeSet narrow = t;
    narrow |= s;
    ASSERT_EQ(members(narrow), listed(uref)) << "capacity=" << capacity;
    ASSERT_EQ(narrow.count(), uref.size()) << "capacity=" << capacity;

    // clear() empties the set and keeps its words.
    const std::uint32_t words = wide.num_words();
    wide.clear();
    EXPECT_EQ(wide.count(), 0u);
    EXPECT_EQ(wide.num_words(), words);
    EXPECT_TRUE(members(wide).empty());
    for (const std::uint32_t b : uref) ASSERT_FALSE(wide.test(b));
  }
}

TEST(NodeSet, WordOpsMatchPerBitOracle) {
  // The scalar flood kernel reads sets through word / count /
  // intersect_count. Drive them with random word images across
  // capacities straddling word boundaries and check every one against
  // per-bit arithmetic.
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

      NodeSet a, b;
      a.ensure_capacity(capacity);
      b.ensure_capacity(capacity);
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

TEST(NodeSet, EnsureCapacityKeepsStorageStable) {
  // The flood kernels pre-size holder sets and component masks so that no
  // write mid-flood reallocates: after ensure_capacity(n), setting bits
  // below n, a union with a set of no greater capacity, a smaller
  // ensure_capacity and clear() all keep the word count.
  NodeSet pre;
  pre.ensure_capacity(1024);
  ASSERT_EQ(pre.num_words(), 16u);
  for (std::uint32_t w = 0; w < 16; ++w) pre.set(w * 64 + 63);
  EXPECT_EQ(pre.num_words(), 16u);
  EXPECT_EQ(pre.count(), 16u);
  NodeSet other;
  other.ensure_capacity(1024);
  other.set(1023);
  other.set(0);
  pre |= other;
  pre.ensure_capacity(128);
  EXPECT_EQ(pre.num_words(), 16u);
  EXPECT_EQ(pre.count(), 17u);
  pre.clear();
  EXPECT_EQ(pre.num_words(), 16u);
  EXPECT_EQ(pre.count(), 0u);
  EXPECT_EQ(pre.word(16), 0u);  // reads beyond the words are zero.

  // A union grows only as far as the other set's highest nonzero word.
  NodeSet narrow;
  narrow.set(3);
  NodeSet wide;
  wide.ensure_capacity(1024);
  wide.set(70);
  narrow |= wide;
  EXPECT_EQ(narrow.num_words(), 2u);
  EXPECT_TRUE(narrow.test(70));
}

}  // namespace
}  // namespace psn::util
