// Tests for psn::paths explosion records / growth curves and the
// hop-profile collectors behind Figs. 14 and 15.

#include <gtest/gtest.h>

#include <vector>

#include "psn/paths/explosion.hpp"
#include "psn/paths/hop_profile.hpp"

namespace psn::paths {
namespace {

using trace::Contact;
using trace::ContactTrace;

graph::SpaceTimeGraph make_graph(std::vector<Contact> cs, NodeId n,
                                 Seconds t_max) {
  return graph::SpaceTimeGraph(ContactTrace(std::move(cs), n, t_max), 10.0);
}

graph::SpaceTimeGraph explosion_fixture() {
  // step 0: 0-1; step 1: 1-4 (T1); step 2: 0-2, 0-3; step 4: 2-4, 3-4.
  return make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 4, 10.0, 15.0),
          Contact::make(0, 2, 20.0, 25.0),
          Contact::make(0, 3, 20.0, 25.0),
          Contact::make(2, 4, 40.0, 45.0),
          Contact::make(3, 4, 40.0, 45.0),
      },
      5, 60.0);
}

TEST(ExplosionRecord, UndeliveredMessage) {
  const auto g = make_graph({Contact::make(0, 1, 0.0, 5.0)}, 3, 60.0);
  EnumeratorConfig config;
  const auto r = KPathEnumerator(g, config).enumerate(0, 2, 0.0);
  const auto rec = make_explosion_record(r, 2000);
  EXPECT_FALSE(rec.delivered);
  EXPECT_FALSE(rec.exploded);
  EXPECT_EQ(rec.total_paths, 0u);
  EXPECT_TRUE(rec.growth.empty());
}

TEST(ExplosionRecord, GrowthCurveCumulative) {
  const auto g = explosion_fixture();
  EnumeratorConfig config;
  config.k = 3;
  const auto r = KPathEnumerator(g, config).enumerate(0, 4, 0.0);
  const auto rec = make_explosion_record(r, 3);
  ASSERT_TRUE(rec.delivered);
  ASSERT_TRUE(rec.exploded);
  EXPECT_DOUBLE_EQ(rec.optimal_duration, 20.0);
  EXPECT_DOUBLE_EQ(rec.time_to_explosion, 30.0);
  ASSERT_EQ(rec.growth.size(), 2u);
  EXPECT_DOUBLE_EQ(rec.growth[0].offset, 0.0);
  EXPECT_EQ(rec.growth[0].cumulative, 1u);
  EXPECT_DOUBLE_EQ(rec.growth[1].offset, 30.0);
  EXPECT_EQ(rec.growth[1].cumulative, 3u);
}

TEST(ExplosionRecord, DeliveredButNotExploded) {
  const auto g = explosion_fixture();
  EnumeratorConfig config;
  config.k = 50;  // more than the 3 paths that exist.
  const auto r = KPathEnumerator(g, config).enumerate(0, 4, 0.0);
  const auto rec = make_explosion_record(r, 50);
  EXPECT_TRUE(rec.delivered);
  EXPECT_FALSE(rec.exploded);
  EXPECT_EQ(rec.total_paths, 3u);
}

TEST(ExplosionStudy, BatchProcessing) {
  const auto g = explosion_fixture();
  std::vector<MessageSpec> msgs{
      {0, 4, 0.0},
      {0, 1, 0.0},
      {3, 0, 0.0},  // 3 never meets 0 before 0's contacts end... check below
  };
  // One enumerator and one reused workspace over the whole batch.
  EnumeratorConfig config;
  config.k = 3;
  config.record_paths = false;
  const KPathEnumerator enumerator(g, config);
  EnumeratorWorkspace workspace;
  std::vector<ExplosionRecord> records;
  for (const MessageSpec& m : msgs)
    records.push_back(make_explosion_record(
        enumerator.enumerate(m.source, m.destination, m.t_start, workspace),
        config.k));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].delivered);
  EXPECT_TRUE(records[1].delivered);  // direct 0-1 at step 0.
  // Message 2: 3 meets 0 at step 2 -> direct delivery.
  EXPECT_TRUE(records[2].delivered);
  EXPECT_EQ(records[2].total_paths, 1u);
}

// --- Delivery.count pooling arithmetic: the T_n indices must count every
// --- pooled time-variant individually (paper §4.2).

TEST(PooledCounts, DurationOfInsidePooledVariantGroup) {
  // 0-1 in contact for 3 steps, then 1 meets 2 at step 4: one delivery
  // with count 3 at t=50. T_1, T_2 and T_3 all fall strictly inside the
  // pooled group and share its arrival time; T_4 does not exist.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 30.0),
          Contact::make(1, 2, 40.0, 45.0),
      },
      3, 60.0);
  const auto r = KPathEnumerator(g, EnumeratorConfig{}).enumerate(0, 2, 0.0);
  ASSERT_EQ(r.deliveries.size(), 1u);
  ASSERT_EQ(r.deliveries[0].count, 3u);
  for (const std::size_t n : {1u, 2u, 3u}) {
    const auto tn = r.duration_of(n);
    ASSERT_TRUE(tn.has_value()) << n;
    EXPECT_DOUBLE_EQ(*tn, 50.0) << n;
  }
  EXPECT_FALSE(r.duration_of(4).has_value());
  // TE with k inside the pool: T_3 - T_1 = 0 (same pooled arrival).
  const auto te = r.time_to_explosion(3);
  ASSERT_TRUE(te.has_value());
  EXPECT_DOUBLE_EQ(*te, 0.0);
  // The record agrees: exploded at k=3 with zero time to explosion.
  const auto rec = make_explosion_record(r, 3);
  EXPECT_TRUE(rec.exploded);
  EXPECT_DOUBLE_EQ(rec.time_to_explosion, 0.0);
  EXPECT_EQ(rec.total_paths, 3u);
}

TEST(PooledCounts, ExplosionThresholdInsideLaterPooledGroup) {
  // First delivery at t=20 (single). At step 4 three more variants arrive
  // together: the step-4 time-variant handed straight through node 2
  // (count 1) plus node 2's two pooled earlier variants (count 2). With
  // k=3 the k-th path falls strictly inside that count-2 pooled record,
  // so TE = 50 - 20 = 30.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),    // step 0
          Contact::make(1, 4, 10.0, 15.0),  // step 1: T1
          Contact::make(0, 2, 20.0, 50.0),  // steps 2-4: 3 time-variants
          Contact::make(2, 4, 40.0, 45.0),  // step 4: pooled delivery
      },
      5, 60.0);
  const auto r = KPathEnumerator(g, EnumeratorConfig{}).enumerate(0, 4, 0.0);
  ASSERT_EQ(r.deliveries.size(), 3u);
  EXPECT_EQ(r.deliveries[0].count, 1u);
  EXPECT_EQ(r.deliveries[1].count, 1u);
  EXPECT_EQ(r.deliveries[2].count, 2u);
  EXPECT_DOUBLE_EQ(r.deliveries[2].arrival, 50.0);
  const auto te = r.time_to_explosion(3);
  ASSERT_TRUE(te.has_value());
  EXPECT_DOUBLE_EQ(*te, 30.0);
  const auto rec = make_explosion_record(r, 3);
  ASSERT_TRUE(rec.exploded);
  EXPECT_DOUBLE_EQ(rec.time_to_explosion, 30.0);
  // The growth curve pools by offset and counts every variant.
  ASSERT_EQ(rec.growth.size(), 2u);
  EXPECT_EQ(rec.growth[1].cumulative, 4u);
}

TEST(PooledCounts, ReachedKMidStepKeepsTotalsExact) {
  // Three 2-hop paths arrive in the same step with k=2: enumeration stops
  // that step (reached_k), records per-path granularity up to the k-th
  // delivery, and pools the overflow so totals stay exact.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(0, 2, 0.0, 5.0),
          Contact::make(0, 3, 0.0, 5.0),
          Contact::make(1, 4, 20.0, 25.0),
          Contact::make(2, 4, 20.0, 25.0),
          Contact::make(3, 4, 20.0, 25.0),
      },
      5, 60.0);
  EnumeratorConfig config;
  config.k = 2;
  const auto r = KPathEnumerator(g, config).enumerate(0, 4, 0.0);
  EXPECT_TRUE(r.reached_k);
  ASSERT_EQ(r.deliveries.size(), 3u);  // two recorded + one pooled rest.
  EXPECT_EQ(r.deliveries[0].count, 1u);
  EXPECT_EQ(r.deliveries[1].count, 1u);
  EXPECT_EQ(r.deliveries[2].count, 1u);
  // All three variants share the arrival, so T_1 = T_2 = T_3 and the
  // mid-step explosion has TE = 0.
  const auto te = r.time_to_explosion(2);
  ASSERT_TRUE(te.has_value());
  EXPECT_DOUBLE_EQ(*te, 0.0);
  const auto t3 = r.duration_of(3);
  ASSERT_TRUE(t3.has_value());
  EXPECT_DOUBLE_EQ(*t3, 30.0);
  const auto rec = make_explosion_record(r, 2);
  EXPECT_TRUE(rec.exploded);
  EXPECT_EQ(rec.total_paths, 3u);
  // Effort telemetry rides along into the record.
  EXPECT_GT(rec.effort.steps_replayed, 0u);
  EXPECT_GT(rec.effort.contact_events, 0u);
}

TEST(HopProfile, RatesIncreaseAlongEngineeredPaths) {
  // Node rates: 0 is slow, relays faster, 4 fastest. Engineer a path
  // 0 -> 1 -> 2 -> 3 and check the collector reports the gradient.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
          Contact::make(2, 3, 40.0, 45.0),
      },
      4, 60.0);
  EnumeratorConfig config;
  config.record_paths = true;
  const auto r = KPathEnumerator(g, config).enumerate(0, 3, 0.0);
  ASSERT_TRUE(r.delivered());

  const std::vector<double> rates{0.01, 0.02, 0.04, 0.08};
  HopProfileCollector collector(rates, 10);
  collector.add(r);

  const auto profile = collector.rate_profile();
  ASSERT_EQ(profile.mean.size(), 4u);
  EXPECT_DOUBLE_EQ(profile.mean[0], 0.01);
  EXPECT_DOUBLE_EQ(profile.mean[1], 0.02);
  EXPECT_DOUBLE_EQ(profile.mean[2], 0.04);
  EXPECT_DOUBLE_EQ(profile.mean[3], 0.08);

  const auto ratios = collector.ratio_profile();
  ASSERT_EQ(ratios.ratio.size(), 3u);
  EXPECT_DOUBLE_EQ(ratios.ratio[0].median, 2.0);
  EXPECT_DOUBLE_EQ(ratios.ratio[1].median, 2.0);
  EXPECT_DOUBLE_EQ(ratios.ratio[2].median, 2.0);
}

TEST(HopProfile, PooledVariantsWeighted) {
  // Persistent contact gives a delivery with count 3; the hop-0 accumulator
  // must see three samples.
  const auto g = make_graph(
      {
          Contact::make(0, 1, 0.0, 30.0),
          Contact::make(1, 2, 40.0, 45.0),
      },
      3, 60.0);
  EnumeratorConfig config;
  const auto r = KPathEnumerator(g, config).enumerate(0, 2, 0.0);
  ASSERT_EQ(r.deliveries.size(), 1u);
  ASSERT_EQ(r.deliveries[0].count, 3u);

  HopProfileCollector collector({0.01, 0.02, 0.03}, 5);
  collector.add(r);
  const auto profile = collector.rate_profile();
  ASSERT_FALSE(profile.samples.empty());
  EXPECT_EQ(profile.samples[0], 3u);
}

TEST(HopProfile, EmptyCollectorEmptyProfiles) {
  HopProfileCollector collector({0.1, 0.2}, 5);
  EXPECT_TRUE(collector.rate_profile().mean.empty());
  EXPECT_TRUE(collector.ratio_profile().ratio.empty());
}

}  // namespace
}  // namespace psn::paths
