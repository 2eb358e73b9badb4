// Tests for the contended-forwarding traffic model: TTL expiry (exact
// across skipped sparse-timeline gaps), bounded buffers with pluggable
// eviction, per-contact byte budgets, and the infinite-limit equivalence
// guarantee of the SimulationRequest API (DESIGN.md §8).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "psn/core/dataset.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/algorithms/epidemic.hpp"
#include "psn/forward/simulator.hpp"

namespace psn::forward {
namespace {

using trace::Contact;
using trace::ContactTrace;

struct Fixture {
  ContactTrace trace;
  graph::SpaceTimeGraph graph;

  Fixture(std::vector<Contact> cs, NodeId n, Seconds t_max)
      : trace(std::move(cs), n, t_max), graph(trace, 10.0) {}

  SimulationRequest request(ForwardingAlgorithm& alg,
                            const std::vector<Message>& msgs,
                            const TrafficConfig& traffic = {}) const {
    SimulationRequest r;
    r.algorithm = &alg;
    r.graph = &graph;
    r.trace = &trace;
    r.messages = &msgs;
    r.traffic = traffic;
    return r;
  }
};

Message msg(std::uint32_t id, NodeId src, NodeId dst, Seconds t,
            std::uint32_t size = 1, Seconds ttl = kNoTtl) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.created = t;
  m.size_bytes = size;
  m.ttl = ttl;
  return m;
}

// Runs the request under both replay modes and asserts every observable —
// outcomes (incl. expiry/drop flags) and all event counters — agrees
// bit-for-bit: the dense oracle extended to traffic events.
SimulationResult run_both_modes(const Fixture& f, ForwardingAlgorithm& alg,
                                const std::vector<Message>& msgs,
                                const TrafficConfig& traffic = {}) {
  auto sparse = f.request(alg, msgs, traffic);
  sparse.replay = ReplayMode::kSparse;
  auto dense = f.request(alg, msgs, traffic);
  dense.replay = ReplayMode::kDense;
  const auto a = simulate(sparse);
  const auto b = simulate(dense);
  EXPECT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].delivered, b.outcomes[i].delivered)
        << alg.name() << " message " << i;
    EXPECT_EQ(a.outcomes[i].delay, b.outcomes[i].delay)
        << alg.name() << " message " << i;
    EXPECT_EQ(a.outcomes[i].hops, b.outcomes[i].hops)
        << alg.name() << " message " << i;
    EXPECT_EQ(a.outcomes[i].expired, b.outcomes[i].expired)
        << alg.name() << " message " << i;
    EXPECT_EQ(a.outcomes[i].dropped, b.outcomes[i].dropped)
        << alg.name() << " message " << i;
  }
  EXPECT_EQ(a.transmissions, b.transmissions) << alg.name();
  EXPECT_EQ(a.expirations, b.expirations) << alg.name();
  EXPECT_EQ(a.evictions, b.evictions) << alg.name();
  EXPECT_EQ(a.drops, b.drops) << alg.name();
  EXPECT_EQ(a.budget_blocked, b.budget_blocked) << alg.name();
  EXPECT_EQ(a.buffer_rejections, b.buffer_rejections) << alg.name();
  return a;
}

// ---------------------------------------------------------------- TTL --

TEST(Ttl, ExpiryBeforeOnlyContactKillsMessage) {
  const Fixture f({Contact::make(0, 1, 40.0, 45.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  // Expires at t=20, first contact step starts at t=40.
  const auto r =
      run_both_modes(f, epidemic, {msg(0, 0, 1, 0.0, 1, 20.0)});
  EXPECT_FALSE(r.outcomes[0].delivered);
  EXPECT_TRUE(r.outcomes[0].expired);
  EXPECT_EQ(r.expirations, 1u);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(Ttl, SurvivingTtlStillDelivers) {
  const Fixture f({Contact::make(0, 1, 40.0, 45.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  // Expires at t=60, after the contact step [40, 50): delivered.
  const auto r =
      run_both_modes(f, epidemic, {msg(0, 0, 1, 0.0, 1, 60.0)});
  EXPECT_TRUE(r.outcomes[0].delivered);
  EXPECT_FALSE(r.outcomes[0].expired);
  EXPECT_EQ(r.expirations, 0u);
}

TEST(Ttl, ExpiryExactlyAtStepStartCountsAsExpired) {
  // A message is live during step s only if created + ttl > s * delta.
  // Expiry exactly at the step start (t=40 for the [40, 50) step) misses
  // the step's contacts.
  const Fixture f({Contact::make(0, 1, 40.0, 45.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  const auto r =
      run_both_modes(f, epidemic, {msg(0, 0, 1, 0.0, 1, 40.0)});
  EXPECT_FALSE(r.outcomes[0].delivered);
  EXPECT_TRUE(r.outcomes[0].expired);
}

TEST(Ttl, ExpiryInsideSkippedGapHappensBeforeNextContact) {
  // The tentpole's gap-boundary semantics: contacts in step 0 and step 20
  // with a dead gap between. A TTL elapsing inside the gap must kill the
  // message before the post-gap step's first contact — under BOTH replay
  // modes, even though the sparse timeline never visits the gap steps.
  const Fixture f(
      {
          Contact::make(0, 1, 2.0, 6.0),      // step 0: copy reaches 1.
          Contact::make(1, 2, 200.0, 205.0),  // step 20: would deliver.
      },
      3, 300.0);
  ASSERT_EQ(f.graph.num_active_steps(), 2u);
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    // Expires at t=100, mid-gap: nothing may be delivered.
    const auto dead =
        run_both_modes(f, *alg, {msg(0, 0, 2, 0.0, 1, 100.0)});
    EXPECT_FALSE(dead.outcomes[0].delivered) << alg->name();
    EXPECT_TRUE(dead.outcomes[0].expired) << alg->name();
    // Expires at t=250, after the post-gap step [200, 210) starts: the
    // same message with a longer TTL keeps its chance. Multi-hop schemes
    // deliver it there; schemes that never route it watch it expire in
    // the end-of-window sweep instead — exactly one of the two.
    const auto alive =
        run_both_modes(f, *alg, {msg(0, 0, 2, 0.0, 1, 250.0)});
    EXPECT_NE(alive.outcomes[0].delivered, alive.outcomes[0].expired)
        << alg->name();
  }
  EpidemicForwarding epidemic;
  const auto r = run_both_modes(f, epidemic, {msg(0, 0, 2, 0.0, 1, 250.0)});
  EXPECT_TRUE(r.outcomes[0].delivered);
  EXPECT_FALSE(r.outcomes[0].expired);
}

TEST(Ttl, ExpiryAfterLastContactStillCountsWithinWindow) {
  // TTL elapses after the last contact but inside the trace window: the
  // final sweep must expire it (in both modes — the dense replay's
  // trailing steps are contact-free no-ops too).
  const Fixture f({Contact::make(1, 2, 5.0, 8.0)}, 3, 300.0);
  EpidemicForwarding epidemic;
  const auto r =
      run_both_modes(f, epidemic, {msg(0, 0, 2, 0.0, 1, 100.0)});
  EXPECT_TRUE(r.outcomes[0].expired);
  EXPECT_EQ(r.expirations, 1u);
}

TEST(Ttl, ExpiryBeyondTraceWindowLeavesMessageInFlight) {
  const Fixture f({Contact::make(1, 2, 5.0, 8.0)}, 3, 300.0);
  EpidemicForwarding epidemic;
  const auto r =
      run_both_modes(f, epidemic, {msg(0, 0, 2, 0.0, 1, 10000.0)});
  EXPECT_FALSE(r.outcomes[0].delivered);
  EXPECT_FALSE(r.outcomes[0].expired);
  EXPECT_EQ(r.expirations, 0u);
}

TEST(Ttl, FloodFastPathRespectsTtl) {
  // Epidemic with unconstrained traffic keeps the flooding fast path;
  // TTL must still be exact through it. The flood spreads 0 -> 1 in step
  // 0; the copy at 1 must not deliver at t=200 if the TTL died at t=50.
  const Fixture f(
      {
          Contact::make(0, 1, 2.0, 6.0),
          Contact::make(1, 2, 200.0, 205.0),
      },
      3, 300.0);
  EpidemicForwarding epidemic;
  const auto r = run_both_modes(f, epidemic, {msg(0, 0, 2, 0.0, 1, 50.0)});
  EXPECT_FALSE(r.outcomes[0].delivered);
  EXPECT_TRUE(r.outcomes[0].expired);
  EXPECT_EQ(r.transmissions, 1u);  // the step-0 copy to node 1.
}

TEST(Ttl, RejectsNegativeOrNanTtl) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  const std::vector<Message> negative = {msg(0, 0, 1, 0.0, 1, -1.0)};
  EXPECT_THROW((void)simulate(f.request(epidemic, negative)),
               std::invalid_argument);
  const std::vector<Message> nan = {
      msg(0, 0, 1, 0.0, 1, std::numeric_limits<Seconds>::quiet_NaN())};
  EXPECT_THROW((void)simulate(f.request(epidemic, nan)),
               std::invalid_argument);
  const std::vector<Message> zero_size = {msg(0, 0, 1, 0.0, 0)};
  EXPECT_THROW((void)simulate(f.request(epidemic, zero_size)),
               std::invalid_argument);
}

// ------------------------------------------------------ bounded buffers --

TEST(Buffer, ActivationEvictsOldestResidentAtSource) {
  // Capacity 1 at every node; two messages originate at node 0 with an
  // unreachable destination. Admitting the second at activation must
  // evict the first — its last copy, so it drops.
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 3, 60.0);
  TrafficConfig traffic;
  traffic.buffer_capacity_bytes = 1;
  EpidemicForwarding epidemic;
  const auto r = run_both_modes(
      f, epidemic, {msg(0, 0, 2, 0.0), msg(1, 0, 2, 1.0)}, traffic);
  EXPECT_TRUE(r.outcomes[0].dropped);
  EXPECT_FALSE(r.outcomes[1].dropped);
  EXPECT_EQ(r.evictions, 1u);
  EXPECT_EQ(r.drops, 1u);
}

TEST(Buffer, MessageLargerThanBufferIsStillborn) {
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 2, 60.0);
  TrafficConfig traffic;
  traffic.buffer_capacity_bytes = 4;
  EpidemicForwarding epidemic;
  const auto r =
      run_both_modes(f, epidemic, {msg(0, 0, 1, 0.0, 8)}, traffic);
  EXPECT_FALSE(r.outcomes[0].delivered);
  EXPECT_TRUE(r.outcomes[0].dropped);
  EXPECT_EQ(r.buffer_rejections, 1u);
  EXPECT_EQ(r.drops, 1u);
  EXPECT_EQ(r.evictions, 0u);  // nothing was evicted for it.
}

// Activation-side eviction at a contested relay. Step 1's contact seeds
// node 1 (capacity 2) with two residents — B born there (hop 0, created
// 0) and A's relayed copy (hop 1, created 2) — and Epidemic's reverse
// copy parks B's spare at node 0. C then activates at node 1 in step 3,
// whose only contact is between bystanders 6-7, so make_room must pick a
// victim with no relay churn in the way: activation order is fixed, the
// choice is purely the eviction rule's. The victim's message survives at
// node 0 (eviction, not a drop) but misses the final delivery contact.
Fixture relay_eviction_fixture() {
  return Fixture(
      {
          Contact::make(0, 1, 10.0, 15.0),  // A and B cross-replicate.
          Contact::make(6, 7, 30.0, 35.0),  // step 3 active; C activates.
          Contact::make(1, 5, 50.0, 55.0),  // survivors deliver to 5.
      },
      8, 100.0);
}

std::vector<Message> relay_eviction_messages() {
  return {
      msg(0, 0, 5, 2.0),   // A: newer, hop 1 at node 1.
      msg(1, 1, 5, 0.0),   // B: older, hop 0 at node 1.
      msg(2, 1, 5, 20.0),  // C: the late activation forcing eviction.
  };
}

TEST(Buffer, DropOldestEvictsEarliestCreation) {
  const auto f = relay_eviction_fixture();
  TrafficConfig traffic;
  traffic.buffer_capacity_bytes = 2;
  EpidemicForwarding epidemic;
  const auto r =
      run_both_modes(f, epidemic, relay_eviction_messages(), traffic);
  // B (created 0) is the oldest resident at node 1: its copy there is
  // evicted, its spare at node 0 survives — so no drop, but no delivery.
  EXPECT_TRUE(r.outcomes[0].delivered);
  EXPECT_FALSE(r.outcomes[1].delivered);
  EXPECT_FALSE(r.outcomes[1].dropped);
  EXPECT_TRUE(r.outcomes[2].delivered);
  EXPECT_EQ(r.evictions, 1u);
  EXPECT_EQ(r.drops, 0u);
}

// ------------------------------------------------------ contact budgets --

TEST(Budget, PerStepByteBudgetSerializesDeliveries) {
  // Two unit-size messages at node 0, destination 1, and a 1-byte budget:
  // each contact step carries exactly one of them. The second delivery
  // must wait for the second contact.
  const Fixture f(
      {
          Contact::make(0, 1, 10.0, 15.0),
          Contact::make(0, 1, 30.0, 35.0),
      },
      2, 60.0);
  TrafficConfig traffic;
  traffic.contact_budget_bytes = 1;
  EpidemicForwarding epidemic;
  const auto r = run_both_modes(
      f, epidemic, {msg(0, 0, 1, 0.0), msg(1, 0, 1, 1.0)}, traffic);
  ASSERT_TRUE(r.outcomes[0].delivered);
  ASSERT_TRUE(r.outcomes[1].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 20.0);  // step [10, 20).
  EXPECT_DOUBLE_EQ(r.outcomes[1].delay, 39.0);  // step [30, 40), created 1.
  EXPECT_GE(r.budget_blocked, 1u);
}

TEST(Budget, MessageWiderThanBudgetNeverCrosses) {
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 2, 60.0);
  TrafficConfig traffic;
  traffic.contact_budget_bytes = 2;
  EpidemicForwarding epidemic;
  const auto r =
      run_both_modes(f, epidemic, {msg(0, 0, 1, 0.0, 4)}, traffic);
  EXPECT_FALSE(r.outcomes[0].delivered);
  EXPECT_FALSE(r.outcomes[0].dropped);  // blocked, not dead.
  EXPECT_GE(r.budget_blocked, 1u);
}

TEST(Budget, BudgetIsSharedAcrossDirections) {
  // Node 0 and node 1 each hold a message for the other's side; a 1-byte
  // edge budget lets only one cross per step regardless of direction.
  const Fixture f(
      {
          Contact::make(0, 1, 10.0, 15.0),
          Contact::make(0, 1, 30.0, 35.0),
      },
      2, 60.0);
  TrafficConfig traffic;
  traffic.contact_budget_bytes = 1;
  EpidemicForwarding epidemic;
  const auto r = run_both_modes(
      f, epidemic, {msg(0, 0, 1, 0.0), msg(1, 1, 0, 1.0)}, traffic);
  EXPECT_TRUE(r.outcomes[0].delivered);
  EXPECT_TRUE(r.outcomes[1].delivered);
  // One of the two waited for the second step.
  EXPECT_GT(std::max(r.outcomes[0].delay, r.outcomes[1].delay), 25.0);
  EXPECT_GE(r.budget_blocked, 1u);
}

// ------------------------------------- constrained dense/sparse sweeps --

TEST(TrafficEquivalence, ConstrainedGapTraceMatchesDenseForAllAlgorithms) {
  // Bursts separated by dead gaps, finite budget AND buffer AND mixed
  // TTLs: every algorithm must agree between replay modes on every
  // outcome flag and event counter (run_both_modes asserts all of it).
  std::vector<Contact> cs;
  for (int burst = 0; burst < 4; ++burst) {
    const double t0 = burst * 300.0;
    cs.push_back(Contact::make(0, 1, t0 + 5.0, t0 + 15.0));
    cs.push_back(Contact::make(1, 2, t0 + 8.0, t0 + 18.0));
    cs.push_back(Contact::make(2, 3, t0 + 30.0, t0 + 42.0));
    cs.push_back(Contact::make(3, 4, t0 + 31.0, t0 + 41.0));
    cs.push_back(Contact::make(4, 5, t0 + 60.0, t0 + 70.0));
  }
  const Fixture f(std::move(cs), 6, 1300.0);
  ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());

  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 16; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 5),
                       static_cast<NodeId>((i + 2) % 5), i * 70.0,
                       1 + i % 3, i % 4 == 0 ? 150.0 : kNoTtl));

  TrafficConfig traffic;
  traffic.contact_budget_bytes = 3;
  traffic.buffer_capacity_bytes = 4;
  for (const auto& name : extended_algorithm_names())
    (void)run_both_modes(f, *make_algorithm(name), msgs, traffic);
}

TEST(TrafficEquivalence, ExplicitUnlimitedMatchesDefaultBitForBit) {
  // TrafficConfig{kUnlimited, kUnlimited} spelled out must be
  // indistinguishable from the default-constructed request.
  std::vector<Contact> cs;
  for (int i = 0; i < 30; ++i)
    cs.push_back(Contact::make(static_cast<NodeId>(i % 5),
                               static_cast<NodeId>(i % 5 + 1), i * 20.0,
                               i * 20.0 + 10.0));
  const Fixture f(std::move(cs), 7, 700.0);
  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 10; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 6),
                       static_cast<NodeId>((i + 3) % 6), i * 30.0));

  TrafficConfig unlimited;
  unlimited.contact_budget_bytes = TrafficConfig::kUnlimited;
  unlimited.buffer_capacity_bytes = TrafficConfig::kUnlimited;
  ASSERT_TRUE(unlimited.unconstrained());
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    const auto base = simulate(f.request(*alg, msgs));
    const auto explicit_unlimited =
        simulate(f.request(*alg, msgs, unlimited));
    ASSERT_EQ(base.outcomes.size(), explicit_unlimited.outcomes.size());
    for (std::size_t i = 0; i < base.outcomes.size(); ++i) {
      EXPECT_EQ(base.outcomes[i].delivered,
                explicit_unlimited.outcomes[i].delivered)
          << alg->name();
      EXPECT_EQ(base.outcomes[i].delay, explicit_unlimited.outcomes[i].delay)
          << alg->name();
      EXPECT_EQ(base.outcomes[i].hops, explicit_unlimited.outcomes[i].hops)
          << alg->name();
    }
    EXPECT_EQ(base.transmissions, explicit_unlimited.transmissions)
        << alg->name();
    EXPECT_EQ(explicit_unlimited.evictions, 0u) << alg->name();
    EXPECT_EQ(explicit_unlimited.drops, 0u) << alg->name();
  }
}

// ------------------------------------------------- offered-load study --

TEST(OfferedLoad, EpidemicCollapsesWhereQuotaSchemeHolds) {
  // The new result family (ROADMAP item 1): under finite buffers,
  // Epidemic's indiscriminate replication self-congests as offered load
  // grows — its own copies evict each other — while Spray+Wait's fixed
  // copy budget keeps buffer pressure per message bounded.
  const auto dataset = core::DatasetFactory::random_waypoint_dataset();

  // One sweep per load level (the base rate x 1 and x 16), so both
  // algorithms at a level see the same messages, all under one finite
  // buffer limit.
  engine::PlanConfig config;
  config.runs = 2;
  config.master_seed = 7;
  config.traffic.buffer_capacity_bytes = 64;
  engine::ThreadPool pool(2);
  engine::SweepOptions options;
  options.pool = &pool;
  options.keep_delays = false;  // load curves need aggregates only.
  std::vector<engine::SweepResult> levels;
  for (const double multiplier : {1.0, 16.0}) {
    config.message_rate = 0.02 * multiplier;
    levels.push_back(engine::run_sweep(
        engine::make_plan({engine::make_scenario(dataset)},
                          {"Epidemic", "Spray+Wait"}, config),
        options));
  }

  const engine::CellSummary& epidemic_low = levels[0].cell(0, 0);
  const engine::CellSummary& epidemic_high = levels[1].cell(0, 0);
  const engine::CellSummary& spray_low = levels[0].cell(0, 1);
  const engine::CellSummary& spray_high = levels[1].cell(0, 1);
  ASSERT_EQ(epidemic_low.algorithm, "Epidemic");
  ASSERT_EQ(spray_high.algorithm, "Spray+Wait");
  EXPECT_GT(epidemic_high.messages_offered, epidemic_low.messages_offered);

  // Epidemic degrades under load (measured ~1.00 -> ~0.78 here; the
  // margins leave generous slack so parameter-insensitive)...
  EXPECT_LT(epidemic_high.overall.success_rate,
            epidemic_low.overall.success_rate - 0.15);
  EXPECT_GT(static_cast<double>(epidemic_high.drops) /
                static_cast<double>(epidemic_high.messages_offered),
            0.1);
  EXPECT_GT(epidemic_high.evictions, 0u);
  // ...while the quota scheme holds (measured ~0.92, a dip of ~0.08) and
  // beats Epidemic outright at the loaded end — the inversion of the
  // unconstrained ranking, where no scheme outdelivers Epidemic.
  EXPECT_GT(spray_high.overall.success_rate,
            spray_low.overall.success_rate - 0.15);
  EXPECT_GT(spray_high.overall.success_rate,
            epidemic_high.overall.success_rate + 0.05);
}

}  // namespace
}  // namespace psn::forward
