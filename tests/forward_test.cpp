// Tests for psn::forward: the trace-driven simulator semantics and every
// forwarding algorithm on engineered scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/algorithms/direct.hpp"
#include "psn/forward/algorithms/epidemic.hpp"
#include "psn/forward/algorithms/fresh.hpp"
#include "psn/forward/algorithms/greedy.hpp"
#include "psn/forward/algorithms/greedy_online.hpp"
#include "psn/forward/algorithms/greedy_total.hpp"
#include "psn/forward/algorithms/min_expected_delay.hpp"
#include "psn/forward/algorithms/prophet.hpp"
#include "psn/forward/algorithms/randomized.hpp"
#include "psn/forward/algorithms/spray_and_wait.hpp"
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

  SimulationResult run(ForwardingAlgorithm& alg,
                       const std::vector<Message>& msgs) const {
    return simulate(request(alg, msgs));
  }

  SimulationRequest request(ForwardingAlgorithm& alg,
                            const std::vector<Message>& msgs) const {
    SimulationRequest r;
    r.algorithm = &alg;
    r.graph = &graph;
    r.trace = &trace;
    r.messages = &msgs;
    return r;
  }
};

Message msg(std::uint32_t id, NodeId src, NodeId dst, Seconds t) {
  return Message{id, src, dst, t};
}

TEST(Simulator, DirectContactDeliversForEveryAlgorithm) {
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 2, 60.0);
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    const auto r = f.run(*alg, {msg(0, 0, 1, 0.0)});
    ASSERT_TRUE(r.outcomes[0].delivered) << alg->name();
    EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 20.0) << alg->name();
  }
}

TEST(Simulator, UndeliverableMessageFailsForEveryAlgorithm) {
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 3, 60.0);
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    const auto r = f.run(*alg, {msg(0, 0, 2, 0.0)});
    EXPECT_FALSE(r.outcomes[0].delivered) << alg->name();
  }
}

TEST(Simulator, MessageCreatedAfterOnlyContactFails) {
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 1, 30.0)});
  EXPECT_FALSE(r.outcomes[0].delivered);
}

TEST(Simulator, RejectsBadMessages) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  EXPECT_THROW((void)f.run(epidemic, {msg(0, 0, 0, 0.0)}),
               std::invalid_argument);
  EXPECT_THROW((void)f.run(epidemic, {msg(0, 0, 7, 0.0)}),
               std::invalid_argument);
}

TEST(Epidemic, UsesMultiHopPathsOverTime) {
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
          Contact::make(2, 3, 40.0, 45.0),
      },
      4, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 3, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 50.0);
  // Hop levels are tracked through the flooding fast path: 0->1->2->3.
  EXPECT_EQ(r.outcomes[0].hops, 3u);
}

TEST(Epidemic, ZeroWeightClosureWithinStep) {
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 0.0, 5.0),
          Contact::make(2, 3, 0.0, 5.0),
      },
      4, 30.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 3, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 10.0);
  // Three contact edges crossed within the one step.
  EXPECT_EQ(r.outcomes[0].hops, 3u);
}

TEST(Epidemic, HopCountIsMinimalOverHolderChains) {
  // Two routes to the destination open in the same step: a long chain
  // through 1-2-3 and a direct source contact. The delivering copy's hop
  // count is the shortest chain within the closure.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 0.0, 5.0),
          Contact::make(2, 3, 0.0, 5.0),
          Contact::make(3, 4, 0.0, 5.0),
          Contact::make(0, 4, 0.0, 5.0),
      },
      5, 30.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 4, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.outcomes[0].hops, 1u);  // direct 0-4 beats 0-1-2-3-4.
}

TEST(Epidemic, HopLevelsAccumulateAcrossSteps) {
  // The flood spreads 0 -> {1} in step 0, {0,1} -> {2} in step 2 (via the
  // 1-2 contact), and delivers from 2 in step 4; the delivering copy's
  // level must count hops from the original source across steps.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
          Contact::make(2, 3, 40.0, 45.0),
          Contact::make(0, 3, 41.0, 44.0),  // dest also meets source late
      },
      4, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 3, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 50.0);
  // In step 4 the component is {0, 2, 3}: the source delivers directly.
  EXPECT_EQ(r.outcomes[0].hops, 1u);
}

TEST(Simulator, RelayTruncationIsCountedNotSilent) {
  // With max_relay_passes = 1, the one allowed pass still makes progress
  // (the 0-1 delivery), so the fixpoint is never verified: the step must
  // be counted as truncated rather than silently cut off.
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 30.0);
  FreshForwarding fresh;  // generic (non-flooding) path
  const std::vector<Message> msgs = {msg(0, 0, 1, 0.0)};
  auto request = f.request(fresh, msgs);
  request.max_relay_passes = 1;
  const auto truncated = simulate(request);
  EXPECT_TRUE(truncated.outcomes[0].delivered);
  EXPECT_EQ(truncated.truncated_relay_steps, 1u);

  // With the default bound the fixpoint converges and nothing truncates.
  const auto converged = f.run(fresh, {msg(0, 0, 1, 0.0)});
  EXPECT_TRUE(converged.outcomes[0].delivered);
  EXPECT_EQ(converged.truncated_relay_steps, 0u);
}

TEST(Simulator, SingleCopyHopCountsPast65535) {
  // Nodes 0 and 1 meet for 300 steps; a copy that always moves crosses
  // their edge twice in each of a step's 128 relay passes and ends every
  // step back at 0, which then meets the destination: 300 × 256 + 1 hops.
  // 16-bit counts reported this as 11,265.
  const Fixture f({Contact::make(0, 1, 0.0, 3000.0),
                   Contact::make(0, 2, 3000.0, 3005.0)},
                  3, 3100.0);
  RandomizedForwarding always(1.0);
  const std::vector<Message> msgs = {msg(0, 0, 2, 0.0)};
  for (const auto scan : {ContactScan::kHolderIncident, ContactScan::kFull}) {
    auto request = f.request(always, msgs);
    request.contact_scan = scan;
    const auto r = simulate(request);
    ASSERT_TRUE(r.outcomes[0].delivered);
    EXPECT_EQ(r.outcomes[0].hops, 76'801u);
    EXPECT_EQ(r.truncated_relay_steps, 300u);
  }
}

TEST(Direct, OnlySourceMeetingDestinationDelivers) {
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),     // relay opportunity (unused)
          Contact::make(1, 2, 20.0, 25.0),   // relay could deliver here
          Contact::make(0, 2, 40.0, 45.0),   // source meets destination
      },
      3, 60.0);
  DirectDelivery direct;
  const auto r = f.run(direct, {msg(0, 0, 2, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 50.0);  // not 30: no relaying.
  EXPECT_EQ(r.outcomes[0].hops, 1u);
}

TEST(Fresh, ForwardsToNodeWithMoreRecentEncounter) {
  // Node 1 met the destination (3) recently; node 0 never did. On contact
  // 0-1, FRESH hands the message to 1, which delivers on its next meeting.
  const Fixture f(
      {
          Contact::make(1, 3, 0.0, 5.0),     // 1 meets dest early
          Contact::make(0, 1, 20.0, 25.0),   // handoff
          Contact::make(1, 3, 40.0, 45.0),   // delivery
      },
      4, 60.0);
  FreshForwarding fresh;
  const auto r = f.run(fresh, {msg(0, 0, 3, 10.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 40.0);
  EXPECT_EQ(r.outcomes[0].hops, 2u);
}

TEST(Fresh, DoesNotForwardWhenNeitherMetDestination) {
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
      },
      3, 60.0);
  FreshForwarding fresh;
  const auto r = f.run(fresh, {msg(0, 0, 2, 0.0)});
  // 0 keeps the message (1 has no fresher info at handoff time, both -1),
  // so the 1-2 contact is useless and the message fails.
  EXPECT_FALSE(r.outcomes[0].delivered);
}

TEST(Greedy, CountsBeatRecency) {
  // Node 1 met dest twice long ago; node 2 met dest once recently.
  // Greedy prefers node 1 over the holder, FRESH would prefer node 2.
  const Fixture f(
      {
          Contact::make(1, 4, 0.0, 2.0),
          Contact::make(1, 4, 10.0, 12.0),
          Contact::make(2, 4, 20.0, 22.0),
          Contact::make(0, 1, 40.0, 45.0),  // holder meets 1: forward
          Contact::make(1, 4, 60.0, 65.0),  // 1 delivers
      },
      5, 100.0);
  GreedyForwarding greedy;
  const auto r = f.run(greedy, {msg(0, 0, 4, 30.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 40.0);
}

TEST(Greedy, CountsContactEventsNotSteps) {
  // One long contact (many steps) counts once; two short contacts count
  // twice, so node 2 wins over node 1.
  const Fixture f(
      {
          Contact::make(1, 4, 0.0, 50.0),   // long: 1 event for node 1
          Contact::make(2, 4, 0.0, 2.0),    // short
          Contact::make(2, 4, 20.0, 22.0),  // short again: 2 events
          Contact::make(1, 2, 60.0, 65.0),  // if 1 held a message...
      },
      5, 100.0);
  GreedyForwarding greedy;
  greedy.prepare(f.graph, f.trace);
  // Feed history directly.
  greedy.observe_contact(1, 4, 0, true);
  greedy.observe_contact(1, 4, 1, false);  // continuation: ignored
  greedy.observe_contact(2, 4, 0, true);
  greedy.observe_contact(2, 4, 2, true);
  EXPECT_TRUE(greedy.should_forward(1, 2, 4, 3, 1));
  EXPECT_FALSE(greedy.should_forward(2, 1, 4, 3, 1));
}

TEST(GreedyTotal, OracleKnowsFutureContacts) {
  // Node 2's contacts all happen after the decision step; Greedy Total
  // still prefers it (future knowledge), Greedy Online does not.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),      // the decision contact
          Contact::make(2, 3, 50.0, 55.0),
          Contact::make(2, 3, 60.0, 65.0),
          Contact::make(2, 3, 70.0, 75.0),
      },
      4, 100.0);
  GreedyTotalForwarding total;
  total.prepare(f.graph, f.trace);
  // Node 1 has 1 total contact, node 0 has 1; node 2 has 3.
  EXPECT_TRUE(total.should_forward(0, 2, 3, 0, 1));
  EXPECT_FALSE(total.should_forward(0, 1, 3, 0, 1));

  GreedyOnlineForwarding online;
  online.prepare(f.graph, f.trace);
  // At step 0, node 2 has no contacts yet.
  online.observe_contact(0, 1, 0, true);
  EXPECT_FALSE(online.should_forward(0, 2, 3, 0, 1));
}

TEST(GreedyOnline, PrefersBusierNodeSoFar) {
  GreedyOnlineForwarding online;
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 4, 60.0);
  online.prepare(f.graph, f.trace);
  online.observe_contact(1, 2, 0, true);
  online.observe_contact(1, 3, 0, true);
  online.observe_contact(0, 2, 0, true);
  // Node 1: 2 contacts; node 0: 1 contact.
  EXPECT_TRUE(online.should_forward(0, 1, 3, 1, 1));
  EXPECT_FALSE(online.should_forward(1, 0, 3, 1, 1));
}

TEST(MinExpectedDelay, DistancesFollowMeanGaps) {
  // 0-1 meet frequently, 1-2 meet frequently, 0-2 never: the expected
  // delay 0->2 should be finite via node 1.
  std::vector<Contact> cs;
  for (int i = 0; i < 20; ++i) {
    cs.push_back(Contact::make(0, 1, i * 100.0, i * 100.0 + 5.0));
    cs.push_back(Contact::make(1, 2, i * 100.0 + 50.0, i * 100.0 + 55.0));
  }
  const Fixture f(std::move(cs), 3, 2000.0);
  MinExpectedDelayForwarding meed;
  meed.prepare(f.graph, f.trace);
  EXPECT_LT(meed.distance(0, 1), 200.0);
  EXPECT_LT(meed.distance(0, 2), 400.0);
  EXPECT_GT(meed.distance(0, 2), 0.0);
  // Forwarding from 0 to 1 for destination 2 is an improvement.
  EXPECT_TRUE(meed.should_forward(0, 1, 2, 0, 1));
  EXPECT_FALSE(meed.should_forward(1, 0, 2, 0, 1));
}

TEST(MinExpectedDelay, EndToEndDelivery) {
  std::vector<Contact> cs;
  for (int i = 0; i < 10; ++i) {
    cs.push_back(Contact::make(0, 1, i * 100.0, i * 100.0 + 5.0));
    cs.push_back(Contact::make(1, 2, i * 100.0 + 50.0, i * 100.0 + 55.0));
  }
  const Fixture f(std::move(cs), 3, 1000.0);
  MinExpectedDelayForwarding meed;
  const auto r = f.run(meed, {msg(0, 0, 2, 10.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.outcomes[0].hops, 2u);
}

TEST(SprayAndWait, RespectsCopyBudget) {
  // Star: source meets 5 relays in sequence; with L = 4 only a limited
  // number of nodes may end up holding copies.
  std::vector<Contact> cs;
  for (NodeId relay = 1; relay <= 5; ++relay)
    cs.push_back(
        Contact::make(0, relay, relay * 20.0, relay * 20.0 + 5.0));
  const Fixture f(std::move(cs), 7, 200.0);
  SprayAndWaitForwarding spray(4);
  const auto r = f.run(spray, {msg(0, 0, 6, 0.0)});
  // Destination 6 never appears: undelivered, but the run must not crash
  // and the budget bounds replication (indirectly observable: determinism).
  EXPECT_FALSE(r.outcomes[0].delivered);
}

TEST(SprayAndWait, WaitPhaseStillDeliversDirect) {
  // One relay gets a copy; the relay (in wait phase, copies = 1) must not
  // forward to another relay but must deliver on meeting the destination.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),    // spray: 1 gets half budget
          Contact::make(1, 2, 20.0, 25.0),  // wait: no handoff to 2
          Contact::make(1, 3, 40.0, 45.0),  // delivery to destination 3
      },
      4, 60.0);
  SprayAndWaitForwarding spray(2);
  const auto r = f.run(spray, {msg(0, 0, 3, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 50.0);
}

TEST(Prophet, EncounterRaisesPredictability) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 3, 60.0);
  ProphetForwarding prophet;
  prophet.prepare(f.graph, f.trace);
  EXPECT_DOUBLE_EQ(prophet.predictability(0, 1), 0.0);
  prophet.observe_contact(0, 1, 0, true);
  EXPECT_NEAR(prophet.predictability(0, 1), 0.75, 1e-12);
  prophet.observe_contact(0, 1, 1, true);
  EXPECT_NEAR(prophet.predictability(0, 1), 0.9375, 1e-12);
}

TEST(Prophet, AgingDecaysPredictability) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 3, 600.0);
  ProphetParams params;
  params.gamma = 0.5;
  params.aging_unit = 1;
  ProphetForwarding prophet(params);
  prophet.prepare(f.graph, f.trace);
  prophet.observe_contact(0, 1, 0, true);
  const double before = prophet.predictability(0, 1);
  // Trigger aging via a decision 10 steps later.
  (void)prophet.should_forward(0, 2, 1, 10, 1);
  EXPECT_LT(prophet.predictability(0, 1), before * 0.01);
}

TEST(Prophet, TransitivityPropagates) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 3, 60.0);
  ProphetForwarding prophet;
  prophet.prepare(f.graph, f.trace);
  prophet.observe_contact(1, 2, 0, true);  // 1 knows 2
  prophet.observe_contact(0, 1, 0, true);  // meeting 1 teaches 0 about 2
  EXPECT_GT(prophet.predictability(0, 2), 0.0);
  EXPECT_LT(prophet.predictability(0, 2), prophet.predictability(0, 1));
}

// --- PRoPHET against an independent reference. ---
// The snapshot builder and the per-run algorithm share ProphetTable, so
// the adopted-vs-per-run gates cannot see a bug in its merge walk. This
// reference is the per-peer formulation the walk replaced: every
// predictability is read and written through a binary-searched sorted
// row, one peer at a time.

class ReferenceProphet {
 public:
  ReferenceProphet(NodeId n, const ProphetParams& params)
      : params_(params), rows_(n) {}

  [[nodiscard]] double read(NodeId x, NodeId c, Step s) const {
    const auto& row = rows_[x];
    const auto it = std::lower_bound(row.begin(), row.end(), c, before);
    if (it == row.end() || it->c != c) return 0.0;
    double decay = 1.0;  // gamma^units as an iterated product.
    for (Step k = s / params_.aging_unit - it->w / params_.aging_unit; k > 0;
         --k)
      decay *= params_.gamma;
    return it->v * decay;
  }

  void observe(NodeId a, NodeId b, Step s) {
    const double old_ab = read(a, b, s);
    upsert(a, b, s, old_ab + (1.0 - old_ab) * params_.p_init);
    const double old_ba = read(b, a, s);
    upsert(b, a, s, old_ba + (1.0 - old_ba) * params_.p_init);
    std::vector<NodeId> peers;
    for (const NodeId x : {a, b})
      for (const Cell& cell : rows_[x])
        if (cell.c != a && cell.c != b) peers.push_back(cell.c);
    std::sort(peers.begin(), peers.end());
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    const double p_ab = read(a, b, s);
    const double p_ba = read(b, a, s);
    for (const NodeId c : peers) {
      const double cand_a = p_ab * read(b, c, s) * params_.beta;
      if (cand_a >= params_.transitive_floor && cand_a > read(a, c, s))
        upsert(a, c, s, cand_a);
      const double cand_b = p_ba * read(a, c, s) * params_.beta;
      if (cand_b >= params_.transitive_floor && cand_b > read(b, c, s))
        upsert(b, c, s, cand_b);
    }
  }

 private:
  struct Cell {
    NodeId c;
    Step w;
    double v;
  };

  static bool before(const Cell& cell, NodeId key) { return cell.c < key; }

  void upsert(NodeId x, NodeId c, Step s, double v) {
    auto& row = rows_[x];
    const auto it = std::lower_bound(row.begin(), row.end(), c, before);
    if (it != row.end() && it->c == c)
      *it = Cell{c, s, v};
    else
      row.insert(it, Cell{c, s, v});
  }

  ProphetParams params_;
  std::vector<std::vector<Cell>> rows_;
};

/// A random trace over <= 12 nodes and <= 60 steps (10 s each): bursts
/// where one node meets several others for the first time in one step,
/// contacts lasting several steps (continuing, not new), and a silent gap.
std::vector<Contact> random_prophet_contacts(std::mt19937_64& rng, NodeId n,
                                             int steps) {
  std::vector<Contact> contacts;
  const int gap_start = 5 + static_cast<int>(rng() % 20);
  const int gap_end = gap_start + 3 + static_cast<int>(rng() % 8);
  for (int step = 0; step < steps; ++step) {
    if (step >= gap_start && step < gap_end) continue;
    const auto add = [&](NodeId x, NodeId y) {
      if (x == y) return;
      const double start = step * 10.0 + 1.0;
      const double length = static_cast<double>(rng() % 3) * 10.0 + 2.0;
      contacts.push_back(Contact::make(x, y, start, start + length));
    };
    if (rng() % 3 == 0) {
      const auto hub = static_cast<NodeId>(rng() % n);
      for (int k = 2 + static_cast<int>(rng() % 3); k > 0; --k)
        add(hub, static_cast<NodeId>(rng() % n));
    }
    for (int k = static_cast<int>(rng() % 3); k > 0; --k)
      add(static_cast<NodeId>(rng() % n), static_cast<NodeId>(rng() % n));
  }
  return contacts;
}

/// Replays the fixture's contacts through the reference, a per-run
/// instance and two instances adopting one snapshot; all must agree with
/// the reference bit for bit. The per-run and `adopted` instances read
/// every P(x, c) at every step, contact-free steps included. `late` reads
/// column c for the first time at step floor(c * steps / n), so its
/// cursor catches up through every earlier run at once, then reads every
/// column again at the last step.
void expect_prophet_matches_reference(const Fixture& f,
                                      const ProphetParams& params,
                                      const std::string& label) {
  const NodeId n = f.graph.num_nodes();
  const Step steps = f.graph.num_steps();
  ReferenceProphet reference(n, params);
  ProphetForwarding per_run(params);
  per_run.prepare(f.graph, f.trace);
  const auto snapshot = std::make_shared<ProphetSnapshot>(f.graph, params);
  ProphetForwarding adopted(params);
  ProphetForwarding late(params);
  for (ProphetForwarding* prophet : {&adopted, &late}) {
    prophet->adopt_shared_snapshot(snapshot);
    prophet->prepare(f.graph, f.trace);
    ASSERT_FALSE(prophet->observes_contacts()) << label;
  }
  // Every P(x, c) of `prophet`, whose clock is at s, against the reference.
  const auto column_matches = [&](ProphetForwarding& prophet, NodeId c,
                                  Step s, const char* leg) {
    for (NodeId x = 0; x < n; ++x) {
      const double want = reference.read(x, c, s);
      if (std::bit_cast<std::uint64_t>(prophet.predictability(x, c)) !=
          std::bit_cast<std::uint64_t>(want)) {
        ADD_FAILURE() << label << ": " << leg << " P(" << x << ", " << c
                      << ") at step " << s;
        return false;
      }
    }
    return true;
  };
  for (Step s = 0; s < steps; ++s) {
    const auto edges = f.graph.edges(s);
    const auto flags = f.graph.new_edge_flags(s);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      per_run.observe_contact(edges[i].a, edges[i].b, s, flags[i] != 0);
      if (flags[i] != 0) reference.observe(edges[i].a, edges[i].b, s);
    }
    // Advance the clocks.
    (void)per_run.should_forward(0, 1, 1, s, 1);
    (void)adopted.should_forward(0, 1, 1, s, 1);
    for (NodeId c = 0; c < n; ++c) {
      if (!column_matches(per_run, c, s, "per-run") ||
          !column_matches(adopted, c, s, "adopted"))
        return;
      if (static_cast<std::uint64_t>(c) * steps / n != s) continue;
      (void)late.should_forward(0, 1, c, s, 1);  // column c's first read.
      if (!column_matches(late, c, s, "late")) return;
    }
  }
  (void)late.should_forward(0, 1, 0, steps - 1, 1);
  for (NodeId c = 0; c < n; ++c)
    if (!column_matches(late, c, steps - 1, "late, at the last step")) return;
}

TEST(Prophet, SnapshotAndPerRunMatchIndependentReference) {
  ProphetParams no_floor;
  no_floor.transitive_floor = 0.0;
  ProphetParams unit_aging;
  unit_aging.aging_unit = 1;
  ProphetParams fast_decay;
  fast_decay.gamma = 0.5;
  const std::pair<const char*, ProphetParams> param_sets[] = {
      {"default", ProphetParams{}},
      {"transitive_floor=0", no_floor},
      {"aging_unit=1", unit_aging},
      {"gamma=0.5", fast_decay},
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    const auto n = static_cast<NodeId>(4 + rng() % 9);
    const int steps = 30 + static_cast<int>(rng() % 31);
    const Fixture f(random_prophet_contacts(rng, n, steps), n, steps * 10.0);
    // The trace exercises what the walk must get right: silent steps, and
    // a node meeting several peers for the first time in one step.
    ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());
    bool burst = false;
    for (Step s = 0; s < f.graph.num_steps(); ++s) {
      std::vector<int> fresh(n, 0);
      const auto edges = f.graph.edges(s);
      const auto flags = f.graph.new_edge_flags(s);
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (flags[i] == 0) continue;
        ++fresh[edges[i].a];
        ++fresh[edges[i].b];
      }
      burst = burst || std::any_of(fresh.begin(), fresh.end(),
                                   [](int k) { return k > 1; });
    }
    ASSERT_TRUE(burst) << "seed " << seed;
    for (const auto& [name, params] : param_sets)
      expect_prophet_matches_reference(
          f, params, std::string(name) + ", seed " + std::to_string(seed));
  }
}

// --- The table's visit rule at its boundaries. ---
// ProphetTable::observe visits only the peers of each endpoint's strong
// cells (aged value * beta >= transitive_floor). The random traces above
// seldom sit on that line; each fixture below does, and checks that it
// does on the reference's values.

/// A new contact between a < b at step s, over by the next step.
struct Encounter {
  Step s;
  NodeId a;
  NodeId b;
};

/// Holds the table and the snapshot to the reference on a trace of
/// `encounters`, listed in the graph's edge order (by step, then by
/// (a, b)), and returns the reference after the last one.
ReferenceProphet expect_encounters_match_reference(
    const std::vector<Encounter>& encounters, NodeId n,
    const ProphetParams& params, const std::string& label) {
  ReferenceProphet reference(n, params);
  std::vector<Contact> contacts;
  for (const Encounter& e : encounters) {
    const double start = e.s * 10.0 + 1.0;
    contacts.push_back(Contact::make(e.a, e.b, start, start + 2.0));
    reference.observe(e.a, e.b, e.s);
  }
  const Fixture f(std::move(contacts), n, (encounters.back().s + 2) * 10.0);
  expect_prophet_matches_reference(f, params, label);
  return reference;
}

TEST(ProphetVisitRule, CellOnTheStrengthLineStaysListed) {
  // P_init = 1 and no decay: P(1,3) = 1 * 1 * 0.5 = 0.5, so
  // P(1,3) * beta equals the floor exactly, and at step 2 it seeds
  // P(0,3) = 1 * 0.5 * 0.5 = 0.25, exactly the floor.
  const ProphetParams params{.p_init = 1.0,
                             .beta = 0.5,
                             .gamma = 1.0,
                             .aging_unit = 1,
                             .transitive_floor = 0.25};
  const auto reference = expect_encounters_match_reference(
      {{0, 2, 3}, {1, 1, 2}, {2, 0, 1}}, 4, params, "on the line");
  EXPECT_EQ(reference.read(1, 3, 2) * params.beta, params.transitive_floor);
  EXPECT_EQ(reference.read(0, 3, 2), params.transitive_floor);
}

TEST(ProphetVisitRule, CellDecayedAcrossTheLineIsListedAgainWhenWritten) {
  // P(1,3) = 0.5 at step 0 decays to 0.0625 by step 3, under the 0.1
  // line, and the contact (1,2) there prunes it. At step 4 meeting 3
  // again rewrites it to 0.515625 from the weak 0.03125, which must list
  // it again: at step 5 it seeds P(0,3) = 0.5 * 0.2578125 = 0.12890625.
  const ProphetParams params{.p_init = 0.5,
                             .beta = 1.0,
                             .gamma = 0.5,
                             .aging_unit = 1,
                             .transitive_floor = 0.1};
  const auto reference = expect_encounters_match_reference(
      {{0, 1, 3}, {3, 1, 2}, {4, 1, 3}, {5, 0, 1}}, 4, params,
      "decayed across the line");
  EXPECT_EQ(reference.read(1, 3, 4), 0.515625);
  EXPECT_EQ(reference.read(0, 3, 5), 0.12890625);
}

TEST(ProphetVisitRule, ZeroFloorKeepsEveryCellListed) {
  // Floor 0: every cell is strong however small. P(1,2) decays for 1,000
  // steps to ~7e-302 and still seeds P(0,2).
  const ProphetParams params{.p_init = 0.75,
                             .beta = 0.25,
                             .gamma = 0.5,
                             .aging_unit = 1,
                             .transitive_floor = 0.0};
  const auto reference = expect_encounters_match_reference(
      {{0, 1, 2}, {1000, 0, 1}}, 3, params, "floor 0");
  EXPECT_GT(reference.read(0, 2, 1000), 0.0);
  EXPECT_LT(reference.read(0, 2, 1000), 1e-300);
}

TEST(Prophet, RejectsParametersOutsideTheirDomain) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  const std::pair<const char*, ProphetParams> out_of_domain[] = {
      {"p_init", ProphetParams{.p_init = 1.5}},
      {"beta", ProphetParams{.beta = -0.25}},
      {"beta", ProphetParams{.beta = 4.0}},
      {"gamma", ProphetParams{.gamma = 1.01}},
      {"aging_unit", ProphetParams{.aging_unit = 0}},
      {"transitive_floor",
       ProphetParams{.transitive_floor =
                         std::numeric_limits<double>::quiet_NaN()}},
  };
  for (const auto& [field, params] : out_of_domain) {
    EXPECT_THROW(ProphetForwarding{params}, std::invalid_argument) << field;
    EXPECT_THROW((ProphetSnapshot{f.graph, params}), std::invalid_argument)
        << field;
  }
  // The domain is closed: beta = 1 stays legal.
  EXPECT_NO_THROW(ProphetForwarding{ProphetParams{.beta = 1.0}});
  EXPECT_NO_THROW((ProphetSnapshot{f.graph, ProphetParams{.beta = 1.0}}));
}

TEST(Randomized, DeterministicInSeedAndResets) {
  RandomizedForwarding r1(0.5, 99);
  RandomizedForwarding r2(0.5, 99);
  std::vector<bool> a;
  std::vector<bool> b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(r1.should_forward(0, 1, 2, 0, 1));
    b.push_back(r2.should_forward(0, 1, 2, 0, 1));
  }
  EXPECT_EQ(a, b);
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 3, 60.0);
  r1.prepare(f.graph, f.trace);
  std::vector<bool> c;
  for (int i = 0; i < 50; ++i)
    c.push_back(r1.should_forward(0, 1, 2, 0, 1));
  EXPECT_EQ(a, c);
}

TEST(Registry, PaperSuiteNamesAndOrder) {
  const auto names = paper_algorithm_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "Epidemic");
  EXPECT_EQ(names[1], "FRESH");
  EXPECT_EQ(names[2], "Greedy");
  EXPECT_EQ(names[3], "Greedy Total");
  EXPECT_EQ(names[4], "Greedy Online");
  EXPECT_EQ(names[5], "Dynamic Programming");
  // Every registered name builds an instance that reports that name.
  for (const auto& name : extended_algorithm_names())
    EXPECT_EQ(make_algorithm(name)->name(), name);
}

TEST(Registry, ExtendedSuiteAddsFour) {
  EXPECT_EQ(extended_algorithm_names().size(), 10u);
}

TEST(Simulator, MultipleMessagesIndependent) {
  const Fixture f(
      {
          Contact::make(0, 1, 10.0, 15.0),
          Contact::make(2, 3, 30.0, 35.0),
      },
      4, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 1, 0.0), msg(1, 2, 3, 0.0),
                                  msg(2, 1, 2, 0.0)});
  EXPECT_TRUE(r.outcomes[0].delivered);
  EXPECT_TRUE(r.outcomes[1].delivered);
  EXPECT_FALSE(r.outcomes[2].delivered);
  EXPECT_DOUBLE_EQ(r.outcomes[0].delay, 20.0);
  EXPECT_DOUBLE_EQ(r.outcomes[1].delay, 40.0);
}

TEST(Simulator, TransmissionCostAccounting) {
  // Chain 0 -> 1 -> 2 over time under Epidemic: two relays + delivery...
  // Epidemic copies to 1 (1 tx), then 1 delivers to 2 (1 tx): 2 total.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(1, 2, 20.0, 25.0),
      },
      3, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 2, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.transmissions, 2u);
}

TEST(Simulator, DirectDeliveryCostsOneTransmission) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  DirectDelivery direct;
  const auto r = f.run(direct, {msg(0, 0, 1, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.transmissions, 1u);
}

TEST(Simulator, EpidemicCostCountsAllCopies) {
  // Star component: source meets 3 relays and the destination in one step.
  // The flood copies to every component member: 3 copies + 1 delivery.
  const Fixture f(
      {
          Contact::make(0, 1, 0.0, 5.0),
          Contact::make(0, 2, 0.0, 5.0),
          Contact::make(0, 3, 0.0, 5.0),
          Contact::make(0, 4, 0.0, 5.0),
      },
      5, 30.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {msg(0, 0, 4, 0.0)});
  ASSERT_TRUE(r.outcomes[0].delivered);
  EXPECT_EQ(r.transmissions, 4u);
}

TEST(Simulator, UndeliveredSingleCopyCostsNothingWithoutForwarding) {
  const Fixture f({Contact::make(1, 2, 0.0, 5.0)}, 4, 30.0);
  DirectDelivery direct;
  const auto r = f.run(direct, {msg(0, 0, 3, 0.0)});
  EXPECT_FALSE(r.outcomes[0].delivered);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(Simulator, DeterministicAcrossIdenticalRuns) {
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
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    const auto a = f.run(*alg, msgs);
    const auto b = f.run(*alg, msgs);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << alg->name();
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].delivered, b.outcomes[i].delivered)
          << alg->name();
      EXPECT_DOUBLE_EQ(a.outcomes[i].delay, b.outcomes[i].delay)
          << alg->name();
    }
    EXPECT_EQ(a.transmissions, b.transmissions) << alg->name();
  }
}

TEST(Simulator, EmptyMessageListIsFine) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  const auto r = f.run(epidemic, {});
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.transmissions, 0u);
}

// --- Sparse event timeline vs dense replay: the equivalence harness. ---
// The sparse path must be bit-identical to the pre-timeline dense replay
// for every algorithm — same outcomes, delays, hops, transmissions, and
// truncation counters.

void expect_results_identical(const SimulationResult& a,
                              const SimulationResult& b,
                              const std::string& label) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << label;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].delivered, b.outcomes[i].delivered)
        << label << " message " << i;
    EXPECT_EQ(a.outcomes[i].delay, b.outcomes[i].delay)
        << label << " message " << i;
    EXPECT_EQ(a.outcomes[i].hops, b.outcomes[i].hops)
        << label << " message " << i;
    EXPECT_EQ(a.outcomes[i].expired, b.outcomes[i].expired)
        << label << " message " << i;
    EXPECT_EQ(a.outcomes[i].dropped, b.outcomes[i].dropped)
        << label << " message " << i;
  }
  EXPECT_EQ(a.transmissions, b.transmissions) << label;
  EXPECT_EQ(a.truncated_relay_steps, b.truncated_relay_steps) << label;
  EXPECT_EQ(a.expirations, b.expirations) << label;
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.drops, b.drops) << label;
  EXPECT_EQ(a.budget_blocked, b.budget_blocked) << label;
  EXPECT_EQ(a.buffer_rejections, b.buffer_rejections) << label;
}

void expect_sparse_matches_dense(const Fixture& f,
                                 const std::vector<Message>& msgs,
                                 const TrafficConfig& traffic = {}) {
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    auto dense = f.request(*alg, msgs);
    dense.traffic = traffic;
    dense.replay = ReplayMode::kDense;
    auto sparse = f.request(*alg, msgs);
    sparse.traffic = traffic;
    sparse.replay = ReplayMode::kSparse;
    const auto a = simulate(dense);
    const auto b = simulate(sparse);
    expect_results_identical(a, b, alg->name());
  }
}

TEST(SimulatorTimeline, EmptyTraceMatchesDense) {
  // No contacts at all: the sparse replay visits zero steps, the dense
  // replay scans six empty ones; both must report the same (undelivered)
  // outcomes for messages created anywhere in the window.
  const Fixture f({}, 3, 60.0);
  EXPECT_TRUE(f.graph.active_steps().empty());
  expect_sparse_matches_dense(
      f, {msg(0, 0, 1, 0.0), msg(1, 1, 2, 35.0), msg(2, 2, 0, 59.0)});
}

TEST(SimulatorTimeline, SingleContactAtStepZeroMatchesDense) {
  const Fixture f({Contact::make(0, 1, 0.0, 4.0)}, 3, 60.0);
  ASSERT_EQ(f.graph.num_active_steps(), 1u);
  ASSERT_EQ(f.graph.active_steps()[0], 0u);
  expect_sparse_matches_dense(f, {msg(0, 0, 1, 0.0),   // delivered at 0.
                                  msg(1, 0, 2, 0.0),   // never deliverable.
                                  msg(2, 1, 0, 30.0)});  // created after.
}

TEST(SimulatorTimeline, MessageCreatedAfterLastContactMatchesDense) {
  // Created after the final contact: dense activates it on a late empty
  // step, sparse never activates it — the outcome (undelivered) must be
  // identical.
  const Fixture f({Contact::make(0, 1, 10.0, 15.0)}, 3, 200.0);
  expect_sparse_matches_dense(f, {msg(0, 0, 1, 30.0), msg(1, 0, 1, 199.0)});
}

TEST(SimulatorTimeline, MessagesCreatedInsideSkippedGapMatchDense) {
  // Contacts in steps 0-1 and 9-10 with an 8-step silent gap in between;
  // messages created inside the gap must activate at the next active step
  // under the sparse timeline and behave exactly as under dense replay.
  const Fixture f(
      {
          Contact::make(0, 1, 5.0, 12.0),
          Contact::make(1, 2, 95.0, 105.0),
          Contact::make(0, 2, 98.0, 102.0),
      },
      4, 200.0);
  ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());
  expect_sparse_matches_dense(f, {
                                     msg(0, 0, 2, 30.0),  // mid-gap creation.
                                     msg(1, 1, 0, 45.0),  // mid-gap creation.
                                     msg(2, 2, 3, 50.0),  // undeliverable.
                                     msg(3, 0, 1, 0.0),   // pre-gap creation.
                                 });
}

TEST(SimulatorTimeline, GapSpanningScenarioMatchesDenseForAllAlgorithms) {
  // A longer mixed scenario: bursts of contacts separated by gaps, with
  // messages created before, inside, and after gaps. Covers the relay
  // fixpoint, quota schemes, and oracle algorithms in one sweep.
  std::vector<Contact> cs;
  for (int burst = 0; burst < 5; ++burst) {
    const double t0 = burst * 200.0;
    cs.push_back(Contact::make(0, 1, t0 + 5.0, t0 + 15.0));
    cs.push_back(Contact::make(1, 2, t0 + 8.0, t0 + 18.0));
    cs.push_back(Contact::make(2, 3, t0 + 30.0, t0 + 42.0));
    cs.push_back(Contact::make(3, 4, t0 + 31.0, t0 + 41.0));
  }
  const Fixture f(std::move(cs), 6, 1000.0);
  ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());
  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 12; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 5),
                       static_cast<NodeId>((i + 2) % 5), i * 80.0));
  expect_sparse_matches_dense(f, msgs);
}

// --- Holder-incident contact scan vs the full-replay scalar oracle. ---
// ContactScan::kHolderIncident lets eligible runs relay only across
// contacts incident to current message holders; ContactScan::kFull scans
// every contact of every active step and is retained as the permanent
// oracle. The two must be bit-identical for every algorithm — outcomes,
// delays, hops, transmissions, and every traffic counter — constrained
// or not.

std::vector<Contact> burst_gap_contacts() {
  std::vector<Contact> cs;
  for (int burst = 0; burst < 5; ++burst) {
    const double t0 = burst * 200.0;
    cs.push_back(Contact::make(0, 1, t0 + 5.0, t0 + 15.0));
    cs.push_back(Contact::make(1, 2, t0 + 8.0, t0 + 18.0));
    cs.push_back(Contact::make(2, 3, t0 + 30.0, t0 + 42.0));
    cs.push_back(Contact::make(3, 4, t0 + 31.0, t0 + 41.0));
    // A side pair no message route touches: the fast path must skip it,
    // the oracle scans it, and the results must still agree.
    cs.push_back(Contact::make(5, 6, t0 + 50.0, t0 + 60.0));
  }
  return cs;
}

std::vector<Message> burst_gap_messages() {
  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 12; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 5),
                       static_cast<NodeId>((i + 2) % 5), i * 80.0));
  return msgs;
}

/// The work counters of a request run under each scan mode.
struct ScanEfforts {
  SimulationEffort full;
  SimulationEffort fast;
};

/// Runs `request` under both scan modes and expects identical results,
/// the same relay passes and transfers, and no more decisions on the
/// fast side.
ScanEfforts expect_scan_modes_agree(const SimulationRequest& request,
                                    const std::string& label) {
  auto full = request;
  full.contact_scan = ContactScan::kFull;
  auto fast = request;
  fast.contact_scan = ContactScan::kHolderIncident;
  const auto a = simulate(full);
  const auto b = simulate(fast);
  expect_results_identical(a, b, label);
  EXPECT_EQ(a.effort.relay_passes, b.effort.relay_passes) << label;
  EXPECT_EQ(a.effort.transfers, b.effort.transfers) << label;
  EXPECT_LE(b.effort.decisions, a.effort.decisions) << label;
  return {a.effort, b.effort};
}

/// expect_scan_modes_agree for every extended algorithm; returns the
/// counters summed over them.
ScanEfforts expect_fast_matches_full(
    const Fixture& f, const std::vector<Message>& msgs,
    const TrafficConfig& traffic = {},
    std::uint32_t max_relay_passes = SimulationRequest{}.max_relay_passes) {
  ScanEfforts sum;
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    auto request = f.request(*alg, msgs);
    request.traffic = traffic;
    request.max_relay_passes = max_relay_passes;
    const ScanEfforts e = expect_scan_modes_agree(request, alg->name());
    sum.full += e.full;
    sum.fast += e.fast;
  }
  return sum;
}

TEST(SimulatorHolderIncident, GapTraceMatchesFullOracleForAllAlgorithms) {
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  ASSERT_LT(f.graph.num_active_steps(), f.graph.num_steps());
  // Relay chains here take several passes, and delta passes re-offer
  // only what a holder acquired since the last offer.
  const ScanEfforts sum = expect_fast_matches_full(f, burst_gap_messages());
  EXPECT_LT(sum.fast.decisions, sum.full.decisions);
  // With no relay pass allowed, every edge-bearing step truncates,
  // whether or not a holder has a contact in it.
  expect_fast_matches_full(f, burst_gap_messages(), {}, 0);
}

TEST(SimulatorHolderIncident, MidGapActivationMatchesFullOracle) {
  // Messages created inside silent gaps and after the last contact: the
  // fast path's activation scheduling must agree with the oracle's.
  const Fixture f(
      {
          Contact::make(0, 1, 5.0, 12.0),
          Contact::make(1, 2, 95.0, 105.0),
          Contact::make(0, 2, 98.0, 102.0),
      },
      4, 300.0);
  expect_fast_matches_full(f, {
                                  msg(0, 0, 2, 30.0),   // mid-gap creation.
                                  msg(1, 1, 0, 45.0),   // mid-gap creation.
                                  msg(2, 2, 3, 50.0),   // undeliverable.
                                  msg(3, 0, 1, 0.0),    // pre-gap creation.
                                  msg(4, 0, 1, 250.0),  // after last contact.
                              });
}

TEST(SimulatorHolderIncident, ConstrainedTrafficMatchesFullOracle) {
  // Finite contact budget, tight buffers, and TTLs: expiry, eviction, and
  // budget-blocking must fire identically under both scan modes.
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  auto msgs = burst_gap_messages();
  for (auto& m : msgs) {
    m.size_bytes = 2;
    m.ttl = 320.0;
  }
  TrafficConfig traffic;
  traffic.contact_budget_bytes = 4;
  traffic.buffer_capacity_bytes = 6;
  expect_fast_matches_full(f, msgs, traffic);
}

// --- Seeded random traces: delta passes vs the full-pass oracle. ---
// Delta passes skip the re-offers whose answer cannot have changed, which
// is exact only for pure decisions under unlimited budgets and buffers.
// Tiny dense random traces give steps of three or more passes, splices
// and complete-list steps; every algorithm, traffic regime and pass limit
// around truncation must match ContactScan::kFull.

/// Pure and symmetric: always hands its single copy over, so the copy
/// crosses an edge both ways in every pass — the case that needs a stamp
/// per edge direction rather than per edge.
class AlwaysMove final : public ForwardingAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "AlwaysMove"; }
  [[nodiscard]] bool replicates() const override { return false; }
  [[nodiscard]] bool observes_contacts() const override { return false; }
  [[nodiscard]] bool pure_decisions() const override { return true; }
  [[nodiscard]] bool should_forward(NodeId, NodeId, NodeId, Step,
                                    std::uint32_t) override {
    return true;
  }
};

TEST(SimulatorHolderIncident, SeededRandomTracesMatchFullOracle) {
  std::mt19937_64 rng(22);
  const auto uniform = [&](std::uint32_t lo, std::uint32_t hi) {
    return lo + static_cast<std::uint32_t>(rng() % (hi - lo + 1));
  };
  std::vector<std::unique_ptr<ForwardingAlgorithm>> algorithms;
  for (const auto& name : extended_algorithm_names())
    algorithms.push_back(make_algorithm(name));
  algorithms.push_back(std::make_unique<AlwaysMove>());
  ScanEfforts sum;  // registry algorithms only.
  bool three_passes = false;
  for (int t = 0; t < 200; ++t) {
    const NodeId n = uniform(4, 12);
    const std::uint32_t steps = uniform(5, 40);
    const double t_max = 10.0 * steps;
    std::vector<Contact> cs;
    for (std::uint32_t c = uniform(n, 4 * n); c > 0; --c) {
      const NodeId a = uniform(0, n - 1);
      NodeId b = uniform(0, n - 2);
      if (b >= a) ++b;
      const double start = 10.0 * uniform(0, steps - 1) + uniform(0, 9);
      cs.push_back(Contact::make(
          a, b, start, std::min(t_max, start + 10.0 * uniform(1, 4))));
    }
    const Fixture f(std::move(cs), n, t_max);
    std::vector<Message> msgs;
    for (std::uint32_t i = 0, count = uniform(1, 6); i < count; ++i) {
      const NodeId src = uniform(0, n - 1);
      NodeId dst = uniform(0, n - 2);
      if (dst >= src) ++dst;
      msgs.push_back(msg(i, src, dst, 10.0 * uniform(0, steps - 1)));
      msgs.back().size_bytes = uniform(1, 3);
    }
    for (int regime = 0; regime < 4; ++regime) {
      TrafficConfig traffic;
      std::vector<Message> batch = msgs;
      if (regime == 1)
        for (auto& m : batch) m.ttl = 10.0 * uniform(1, 10);
      if (regime == 2) traffic.contact_budget_bytes = uniform(1, 4);
      if (regime == 3) traffic.buffer_capacity_bytes = uniform(2, 6);
      for (const std::uint32_t passes : {0u, 1u, 2u, 128u}) {
        for (const auto& alg : algorithms) {
          auto request = f.request(*alg, batch);
          request.traffic = traffic;
          request.max_relay_passes = passes;
          const ScanEfforts e = expect_scan_modes_agree(
              request, "trace " + std::to_string(t) + ", regime " +
                           std::to_string(regime) + ", passes " +
                           std::to_string(passes) + ", " + alg->name());
          if (HasFailure()) return;  // one case is enough to read.
          if (alg == algorithms.back()) continue;
          sum.full += e.full;
          sum.fast += e.fast;
          // More passes than two per step means some step took three.
          if (passes == 128 &&
              e.fast.relay_passes > 2 * e.fast.active_steps)
            three_passes = true;
        }
      }
    }
  }
  EXPECT_TRUE(three_passes);
  EXPECT_GT(sum.fast.spliced_edges, 0u);
  EXPECT_GT(sum.fast.complete_steps, 0u);
  EXPECT_LT(sum.fast.decisions, sum.full.decisions);
}

// --- The worklist's bucket pass vs std::sort. ---
// Every scan mode orders its worklist with detail::sort_worklist, so an
// ordering bug would move the fast path and its oracles together. Here
// the pass is checked against std::sort under this test's own (key, a, b)
// comparator. Budgets carry each entry's input position, so a payload
// separated from its key shows too.

using WorkEdge = detail::SimulatorState::WorkEdge;

void expect_bucket_pass_matches_std_sort(std::vector<WorkEdge> work,
                                         const std::string& label) {
  for (std::size_t i = 0; i < work.size(); ++i) work[i].budget = i;
  auto expected = work;
  std::sort(expected.begin(), expected.end(),
            [](const WorkEdge& l, const WorkEdge& r) {
              return std::tie(l.key, l.a, l.b) < std::tie(r.key, r.a, r.b);
            });
  std::vector<WorkEdge> scratch;
  std::vector<std::size_t> bucket_ends;
  detail::sort_worklist(work, scratch, bucket_ends);
  ASSERT_EQ(work.size(), expected.size()) << label;
  for (std::size_t i = 0; i < work.size(); ++i) {
    ASSERT_EQ(work[i].key, expected[i].key) << label << " at " << i;
    ASSERT_EQ(work[i].a, expected[i].a) << label << " at " << i;
    ASSERT_EQ(work[i].b, expected[i].b) << label << " at " << i;
    ASSERT_EQ(work[i].budget, expected[i].budget) << label << " at " << i;
  }
}

TEST(SimulatorWorklist, BucketPassMatchesStdSort) {
  std::mt19937_64 rng(20);
  const auto random_edges = [&](std::size_t m) {
    std::vector<WorkEdge> work(m);
    for (auto& e : work) {
      e.key = rng();
      e.a = static_cast<NodeId>(rng() % 4096);
      e.b = static_cast<NodeId>(rng() % 4096);
    }
    return work;
  };
  // Uniform keys: the empty and trivial lists, both sides of the 256-edge
  // bucket-count boundary, and a list past the 16-bit bucket cap.
  for (const std::size_t m : {0u, 1u, 2u, 3u, 255u, 256u, 257u, 70'000u})
    expect_bucket_pass_matches_std_sort(random_edges(m),
                                        "uniform m=" + std::to_string(m));

  // The extreme keys land in the first and the last bucket.
  auto extremes = random_edges(300);
  extremes[7].key = 0;
  extremes[70].key = 1;
  extremes[170].key = ~std::uint64_t{0} - 1;
  extremes[270].key = ~std::uint64_t{0};
  expect_bucket_pass_matches_std_sort(extremes, "extreme keys");

  // Every key shares its top 16 bits, so every list size puts all edges
  // in one bucket and the per-bucket sort does all the ordering.
  for (const std::size_t m : {2u, 300u, 70'000u}) {
    auto work = random_edges(m);
    for (auto& e : work)
      e.key = (std::uint64_t{0xA5C3} << 48) | (e.key >> 16);
    expect_bucket_pass_matches_std_sort(work,
                                        "one bucket m=" + std::to_string(m));
  }

  // Equal keys with distinct (a, b): all pairs a < b < 24 under three
  // keys, shuffled, so the order rests on the endpoint tie-breaks.
  std::vector<WorkEdge> ties;
  for (NodeId a = 0; a < 24; ++a)
    for (NodeId b = a + 1; b < 24; ++b)
      ties.push_back({0, a, b, 0});
  std::shuffle(ties.begin(), ties.end(), rng);
  const std::uint64_t keys[] = {3, 0x8000'0000'0000'0000ULL, 3};
  for (std::size_t i = 0; i < ties.size(); ++i) ties[i].key = keys[i % 3];
  expect_bucket_pass_matches_std_sort(ties, "equal keys");
}

// --- Shared observation snapshots vs per-run online tables. ---
// An algorithm that publishes a shared_snapshot_key() must, once adopted,
// reproduce its per-run (observe_contact-driven) results bit for bit —
// the snapshot is the same information precomputed from the trace.

void expect_adopted_matches_per_run(const std::string& name, const Fixture& f,
                                    const std::vector<Message>& msgs) {
  const auto oracle = make_algorithm(name);
  const auto adopted = make_algorithm(name);
  ASSERT_FALSE(adopted->shared_snapshot_key().empty()) << name;
  const auto snapshot = adopted->build_shared_snapshot(f.graph, f.trace);
  ASSERT_TRUE(snapshot != nullptr) << name;
  EXPECT_GT(snapshot->bytes(), 0u) << name;
  adopted->adopt_shared_snapshot(snapshot);
  // Adoption flips the observation contract: the simulator no longer
  // feeds contacts (and the run qualifies for the holder-incident scan).
  EXPECT_TRUE(oracle->observes_contacts()) << name;
  EXPECT_FALSE(adopted->observes_contacts()) << name;

  auto full = f.request(*oracle, msgs);
  full.contact_scan = ContactScan::kFull;
  auto fast = f.request(*adopted, msgs);
  expect_results_identical(simulate(full), simulate(fast), name);
}

TEST(SharedSnapshots, AdoptedAlgorithmsMatchPerRunOracle) {
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  for (const char* name : {"FRESH", "Greedy", "Greedy Online", "PRoPHET"})
    expect_adopted_matches_per_run(name, f, burst_gap_messages());
}

TEST(SharedSnapshots, ContactHistoryKeyIsSharedAcrossAdopters) {
  // FRESH, Greedy, and Greedy Online all answer from the contact-history
  // index: one build serves all three (the engine keys the store on it).
  EXPECT_EQ(make_algorithm("FRESH")->shared_snapshot_key(),
            ContactHistoryIndex::kKey);
  EXPECT_EQ(make_algorithm("Greedy")->shared_snapshot_key(),
            ContactHistoryIndex::kKey);
  EXPECT_EQ(make_algorithm("Greedy Online")->shared_snapshot_key(),
            ContactHistoryIndex::kKey);
  // PRoPHET's key carries its parameters: differently-tuned instances
  // never share predictabilities.
  EXPECT_NE(ProphetForwarding(ProphetParams{}).shared_snapshot_key(),
            ProphetForwarding(ProphetParams{.p_init = 0.5})
                .shared_snapshot_key());
  // Epidemic shares its per-step contact components; Direct has nothing
  // to share and publishes no key.
  EXPECT_EQ(make_algorithm("Epidemic")->shared_snapshot_key(),
            ComponentIndexSnapshot::kKey);
  EXPECT_TRUE(make_algorithm("Direct")->shared_snapshot_key().empty());
}

TEST(SharedSnapshots, EpidemicAdoptedIndexMatchesPerStepExtraction) {
  // An adopted whole-graph component index must flood exactly as the
  // un-adopted run's per-step extraction and the scalar oracle do, under
  // both replay modes (dense replay visits gap steps the index has no
  // entry for).
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  const auto msgs = burst_gap_messages();
  EpidemicForwarding plain;
  EpidemicForwarding adopted;
  const auto snapshot = adopted.build_shared_snapshot(f.graph, f.trace);
  ASSERT_TRUE(snapshot != nullptr);
  EXPECT_GT(snapshot->bytes(), 0u);
  adopted.adopt_shared_snapshot(snapshot);
  ASSERT_EQ(plain.step_components(), nullptr);
  ASSERT_NE(adopted.step_components(), nullptr);
  EXPECT_EQ(adopted.step_components()->num_steps(),
            f.graph.num_active_steps());

  auto oracle = f.request(plain, msgs);
  oracle.flood_kernel = FloodKernel::kScalar;
  oracle.replay = ReplayMode::kDense;
  const auto reference = simulate(oracle);
  EXPECT_GT(reference.delivered_count(), 0u);
  for (const auto replay : {ReplayMode::kSparse, ReplayMode::kDense}) {
    for (EpidemicForwarding* alg : {&plain, &adopted}) {
      auto request = f.request(*alg, msgs);
      request.replay = replay;
      expect_results_identical(reference, simulate(request),
                               alg == &adopted ? "adopted" : "per-step");
    }
  }
}

TEST(SharedSnapshots, ComponentIndexFromAnotherGraphIsRejected) {
  // The flood kernel reads an adopted index by step position and member
  // id; simulate() refuses one built over a different graph instead of
  // indexing out of bounds — whether the step count or the population
  // differs.
  const Fixture town(burst_gap_contacts(), 7, 1100.0);
  const Fixture fewer_steps({Contact::make(0, 1, 5.0, 12.0)}, 7, 300.0);
  const Fixture more_nodes(burst_gap_contacts(), 9, 1100.0);
  ASSERT_NE(fewer_steps.graph.num_active_steps(),
            town.graph.num_active_steps());
  ASSERT_EQ(more_nodes.graph.num_active_steps(),
            town.graph.num_active_steps());
  EpidemicForwarding adopted;
  adopted.adopt_shared_snapshot(
      adopted.build_shared_snapshot(town.graph, town.trace));
  const std::vector<Message> msgs = {msg(0, 0, 1, 0.0)};
  EXPECT_EQ(simulate(town.request(adopted, msgs)).delivered_count(), 1u);
  for (const Fixture* other : {&fewer_steps, &more_nodes}) {
    for (const auto kernel :
         {FloodKernel::kComponentIndex, FloodKernel::kScalar}) {
      auto request = other->request(adopted, msgs);
      request.flood_kernel = kernel;
      EXPECT_THROW((void)simulate(request), std::invalid_argument);
    }
  }
}

TEST(SharedSnapshots, AdoptedRunsAreReusableAcrossSimulations) {
  // One adopted instance serving several simulate() calls (the sweep
  // reuses algorithm instances across runs of a cell): prepare() must not
  // disturb the snapshot, and results must stay identical.
  const Fixture f(burst_gap_contacts(), 7, 1100.0);
  const auto adopted = make_algorithm("FRESH");
  adopted->adopt_shared_snapshot(
      adopted->build_shared_snapshot(f.graph, f.trace));
  const auto msgs = burst_gap_messages();
  const auto first = f.run(*adopted, msgs);
  const auto second = f.run(*adopted, msgs);
  expect_results_identical(first, second, "FRESH adopted reuse");
}

TEST(Simulator, WorkspaceReuseIsBitIdentical) {
  // One workspace serving many runs (different algorithms, message
  // counts, and an interleaved larger population) must produce exactly
  // what fresh per-run workspaces produce.
  const Fixture small(
      {
          Contact::make(0, 1, 5.0, 12.0),
          Contact::make(1, 2, 95.0, 105.0),
          Contact::make(0, 2, 150.0, 160.0),
      },
      4, 300.0);
  std::vector<Contact> big_cs;
  for (int i = 0; i < 40; ++i)
    big_cs.push_back(Contact::make(static_cast<NodeId>(i % 9),
                                   static_cast<NodeId>(i % 9 + 1), i * 12.0,
                                   i * 12.0 + 6.0));
  const Fixture big(std::move(big_cs), 10, 600.0);

  std::vector<Message> small_msgs = {msg(0, 0, 2, 0.0), msg(1, 1, 0, 30.0)};
  std::vector<Message> big_msgs;
  for (std::uint32_t i = 0; i < 8; ++i)
    big_msgs.push_back(msg(i, static_cast<NodeId>(i),
                           static_cast<NodeId>((i + 4) % 10), i * 40.0));

  SimulatorWorkspace shared;
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    for (const auto* fx : {&small, &big, &small}) {
      const auto& msgs = fx == &big ? big_msgs : small_msgs;
      const auto request = fx->request(*alg, msgs);
      const auto fresh = simulate(request);
      const auto reused = simulate(request, shared);
      ASSERT_EQ(fresh.outcomes.size(), reused.outcomes.size()) << alg->name();
      for (std::size_t i = 0; i < fresh.outcomes.size(); ++i) {
        EXPECT_EQ(fresh.outcomes[i].delivered, reused.outcomes[i].delivered)
            << alg->name();
        EXPECT_EQ(fresh.outcomes[i].delay, reused.outcomes[i].delay)
            << alg->name();
        EXPECT_EQ(fresh.outcomes[i].hops, reused.outcomes[i].hops)
            << alg->name();
      }
      EXPECT_EQ(fresh.transmissions, reused.transmissions) << alg->name();
    }
  }
}

TEST(Simulator, FloodKernelsMatchBitForBit) {
  // The component-index flood kernel (here un-adopted: each step is
  // extracted into the workspace's one-step index) must reproduce the
  // scalar oracle kernel bit-for-bit: outcomes, delays, hop counts, and
  // transmission totals. Non-flooding algorithms never enter the flood
  // path, so for them this doubles as a no-op knob check.
  std::vector<Contact> cs;
  for (int i = 0; i < 30; ++i)
    cs.push_back(Contact::make(static_cast<NodeId>(i % 5),
                               static_cast<NodeId>(i % 5 + 1), i * 20.0,
                               i * 20.0 + 10.0));
  // A second cluster so steps carry several components at once.
  for (int i = 0; i < 12; ++i)
    cs.push_back(Contact::make(static_cast<NodeId>(7 + i % 3),
                               static_cast<NodeId>(8 + i % 3), i * 45.0,
                               i * 45.0 + 20.0));
  const Fixture f(std::move(cs), 11, 700.0);
  std::vector<Message> msgs;
  for (std::uint32_t i = 0; i < 14; ++i)
    msgs.push_back(msg(i, static_cast<NodeId>(i % 6),
                       static_cast<NodeId>((i + 3) % 6), i * 30.0));
  for (const auto& name : extended_algorithm_names()) {
    const auto alg = make_algorithm(name);
    auto request = f.request(*alg, msgs);
    request.seed = 11;
    request.flood_kernel = FloodKernel::kComponentIndex;
    const auto index = simulate(request);
    request.flood_kernel = FloodKernel::kScalar;
    const auto scalar = simulate(request);
    ASSERT_EQ(index.outcomes.size(), scalar.outcomes.size()) << alg->name();
    for (std::size_t i = 0; i < index.outcomes.size(); ++i) {
      EXPECT_EQ(index.outcomes[i].delivered, scalar.outcomes[i].delivered)
          << alg->name();
      EXPECT_EQ(index.outcomes[i].delay, scalar.outcomes[i].delay)
          << alg->name();
      EXPECT_EQ(index.outcomes[i].hops, scalar.outcomes[i].hops)
          << alg->name();
    }
    EXPECT_EQ(index.transmissions, scalar.transmissions) << alg->name();
  }
}

TEST(Simulator, NullRequestFieldsThrow) {
  const Fixture f({Contact::make(0, 1, 0.0, 5.0)}, 2, 60.0);
  EpidemicForwarding epidemic;
  const std::vector<Message> msgs = {msg(0, 0, 1, 0.0)};
  EXPECT_THROW((void)simulate(SimulationRequest{}), std::invalid_argument);
  auto no_alg = f.request(epidemic, msgs);
  no_alg.algorithm = nullptr;
  EXPECT_THROW((void)simulate(no_alg), std::invalid_argument);
  auto no_msgs = f.request(epidemic, msgs);
  no_msgs.messages = nullptr;
  EXPECT_THROW((void)simulate(no_msgs), std::invalid_argument);
}

TEST(SimulationResultTest, Aggregates) {
  SimulationResult r;
  r.outcomes = {{true, 10.0, 1}, {false, 0.0, 0}, {true, 30.0, 2}};
  EXPECT_EQ(r.delivered_count(), 2u);
}

}  // namespace
}  // namespace psn::forward
