// The forwarding-algorithm interface.
//
// The trace-driven simulator (simulator.hpp) walks the space-time graph's
// event timeline — only steps that carry at least one contact edge — and
// consults the algorithm on every contact. Algorithms see three kinds of
// events:
//
//  * prepare()          — once before every run, with the whole trace:
//                         the one hook that (re)builds per-run state.
//                         Oracles (Greedy Total, Dynamic Programming)
//                         precompute their future knowledge here; online
//                         schemes clear their history (or rewind their
//                         snapshot reader), and Random re-seeds, so an
//                         instance can serve any number of runs.
//  * observe_contact()  — every contact, in trace order, before any
//                         forwarding decision at that step: online history
//                         (FRESH, Greedy, Greedy Online, PRoPHET) is built
//                         from these.
//  * should_forward()   — the decision: holder is in contact with peer and
//                         carries a message for dest; true means hand it
//                         over (move, or copy if replicates() is true).
//
// Delivery itself is never delegated: the simulator enforces minimal
// progress (a holder meeting the destination always delivers).
//
// Gap-skipping contract: steps with no contacts are never surfaced — an
// algorithm is not called at all while the trace is silent, so history
// state must be keyed by the step values actually observed (timestamps,
// counters), never by "one call per step" assumptions. Step ids passed to
// observe_contact()/should_forward() are the true wall-clock step indices,
// so age- and recency-based schemes (FRESH, PRoPHET's decay) behave
// identically whether or not the replay skipped the gap in between.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "psn/graph/space_time_graph.hpp"
#include "psn/trace/contact_trace.hpp"

namespace psn::graph {
class StepComponents;
}  // namespace psn::graph

namespace psn::forward {

using graph::NodeId;
using graph::Step;

/// An immutable, step-indexed precomputation of state an algorithm would
/// otherwise rebuild every run — FRESH's and PRoPHET's observation
/// histories, Epidemic's per-step contact components. That state is a
/// pure function of the trace, independent of the message and the run,
/// so one snapshot per scenario serves every run. Built by
/// ForwardingAlgorithm::build_shared_snapshot, owned by
/// engine::ScenarioContext (cached alongside the graph and
/// counted against the cache byte budget), and handed back to fresh
/// algorithm instances via adopt_shared_snapshot. Concrete types are
/// private to the algorithm family that builds them.
class ObservationSnapshot {
 public:
  virtual ~ObservationSnapshot() = default;
  /// Resident bytes, for cache accounting.
  [[nodiscard]] virtual std::uint64_t bytes() const = 0;
};

class ForwardingAlgorithm {
 public:
  virtual ~ForwardingAlgorithm() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True if forwarding copies the message (holder retains it); false if
  /// the message moves.
  [[nodiscard]] virtual bool replicates() const = 0;

  /// Called once before every run: builds the run's initial state, so a
  /// reused instance starts each run afresh. Default: no per-run state.
  virtual void prepare(const graph::SpaceTimeGraph& graph,
                       const trace::ContactTrace& trace) {
    (void)graph;
    (void)trace;
  }

  /// Contact observation at step s. `new_contact` is true the first step a
  /// contact interval is active, so count-based histories count contact
  /// events rather than steps.
  virtual void observe_contact(NodeId a, NodeId b, Step s, bool new_contact) {
    (void)a;
    (void)b;
    (void)s;
    (void)new_contact;
  }

  /// True if the algorithm consumes observe_contact() events. Oracles and
  /// history-free schemes return false, and the simulator then skips
  /// contact observation for the whole run. The default is true (always
  /// correct); only override to false together with *not* overriding
  /// observe_contact().
  [[nodiscard]] virtual bool observes_contacts() const { return true; }

  /// True if, within one step, should_forward() answers from its
  /// arguments alone: it draws no randomness, no answer depends on which
  /// calls came before, and a refusal stays a refusal as `holder_copies`
  /// falls.
  /// A refused (holder, peer, message) then stays refused for the rest of
  /// the step, so the simulator's holder-incident relay re-offers a
  /// holder only the messages it acquired since the last offer (delta
  /// passes, simulator.hpp). The default is false (always correct): full
  /// relay passes. Random keeps it, since each call draws.
  [[nodiscard]] virtual bool pure_decisions() const { return false; }

  /// Decision: should `holder` hand a message for `dest` to `peer`?
  /// `holder_copies` is the holder's remaining copy budget (used by
  /// quota-based schemes; 1 for single-copy schemes).
  [[nodiscard]] virtual bool should_forward(NodeId holder, NodeId peer,
                                            NodeId dest, Step s,
                                            std::uint32_t holder_copies) = 0;

  /// Copy budget a message starts with at its source (quota schemes
  /// override; 1 means pure single-copy, 0 means unbounded replication).
  [[nodiscard]] virtual std::uint32_t initial_copies() const { return 1; }

  /// Non-empty iff state this algorithm's runs would otherwise rebuild
  /// (its observation history, or Epidemic's per-step components) is a
  /// pure function of the trace and can be shared across runs as an
  /// ObservationSnapshot.
  /// The key identifies the snapshot in the scenario's store — include
  /// every parameter the snapshot depends on (e.g. PRoPHET's constants),
  /// so differently-parameterized instances never share state.
  [[nodiscard]] virtual std::string shared_snapshot_key() const { return {}; }

  /// Builds the shared snapshot for (graph, trace). Called at most once
  /// per (scenario, key) by the engine; must be deterministic. Default:
  /// no snapshot (only meaningful with a non-empty key).
  [[nodiscard]] virtual std::shared_ptr<const ObservationSnapshot>
  build_shared_snapshot(const graph::SpaceTimeGraph& graph,
                        const trace::ContactTrace& trace) const {
    (void)graph;
    (void)trace;
    return nullptr;
  }

  /// Hands a snapshot (previously produced by build_shared_snapshot of an
  /// instance with the same key) to this instance. An adopted algorithm
  /// answers should_forward() from the snapshot, reports
  /// observes_contacts() == false, and must produce bit-identical
  /// decisions to its un-adopted self — which is what lets the simulator
  /// skip the per-run contact replay entirely. Adoption only records the
  /// snapshot; the next prepare() sets up the run's reader.
  virtual void adopt_shared_snapshot(
      std::shared_ptr<const ObservationSnapshot> snapshot) {
    (void)snapshot;
  }

  /// The adopted whole-graph contact-component index the simulator's
  /// flooding fast path reads (entry i describes the graph's i-th active
  /// step), or null — the default, and every un-adopted instance — in
  /// which case the flood path extracts each step's components itself.
  [[nodiscard]] virtual const graph::StepComponents* step_components()
      const {
    return nullptr;
  }
};

}  // namespace psn::forward
