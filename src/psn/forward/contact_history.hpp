// Shared contact-history snapshot for trace-pure observation algorithms.
//
// FRESH, Greedy, and Greedy Online build their forwarding state purely
// from the trace's contact events — last-encounter times, pairwise
// contact counts, per-node contact totals — independent of the message
// and the run. This index precomputes all three views once per scenario
// from the graph's new-contact flags and answers them as-of any step, so
// adopted algorithms skip both the O(n²) per-run state and the per-run
// contact replay entirely (which is what makes the simulator's
// holder-incident fast path apply to them). ContactHistoryForwarding,
// their common base, carries the snapshot protocol once; each scheme
// keeps only its per-run table (the kPerRun oracle) and its decision.
//
// Representation: contact *runs* — maximal intervals of consecutive
// steps a pair is in contact, exactly the intervals the graph's
// new-edge flag opens (`new_contact` true at the first step). Runs are
// stored symmetrically (once per endpoint), CSR-indexed by node and
// sorted by (neighbor, start) within a node, plus a per-node sorted
// array of incident run starts. All queries are integer binary
// searches over data identical to what the online algorithms would
// accumulate, so adopted decisions are bit-identical by construction.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

class ContactHistoryIndex final : public ObservationSnapshot {
 public:
  /// Store key shared by every algorithm that consumes this index (one
  /// build serves FRESH, Greedy, and Greedy Online alike).
  static constexpr const char* kKey = "contact-history";

  explicit ContactHistoryIndex(const graph::SpaceTimeGraph& graph);

  /// Latest step <= s at which x and d were in contact, or -1 — the
  /// value FreshForwarding's last_met_ table holds after observing every
  /// contact at steps <= s (observation precedes decisions within a
  /// step, so s itself is included).
  [[nodiscard]] std::int64_t last_met(NodeId x, NodeId d, Step s) const;

  /// Number of contact events (run starts) between x and d at steps
  /// <= s — GreedyForwarding's met_count_.
  [[nodiscard]] std::uint32_t pair_count(NodeId x, NodeId d, Step s) const;

  /// Number of contact events involving x at steps <= s —
  /// GreedyOnlineForwarding's contacts_so_far_.
  [[nodiscard]] std::uint32_t node_count(NodeId x, Step s) const;

  [[nodiscard]] std::uint64_t bytes() const override;

 private:
  /// Node x's runs occupy [run_offsets_[x], run_offsets_[x + 1]) in the
  /// three parallel arrays, sorted by (neighbor, start).
  std::vector<std::uint64_t> run_offsets_;
  std::vector<NodeId> run_nbr_;
  std::vector<Step> run_start_;
  std::vector<Step> run_end_;
  /// Node x's incident run starts, ascending with multiplicity, occupy
  /// [run_offsets_[x], run_offsets_[x + 1]) of start_times_.
  std::vector<Step> start_times_;
};

/// Base of the single-copy schemes that answer from a ContactHistoryIndex
/// once adopted (FRESH, Greedy, Greedy Online). Subclasses build their
/// per-run table in prepare() unless snapshot_ is set, and read snapshot_
/// in should_forward() when it is.
class ContactHistoryForwarding : public ForwardingAlgorithm {
 public:
  [[nodiscard]] bool replicates() const final { return false; }
  [[nodiscard]] bool observes_contacts() const final {
    return snapshot_ == nullptr;
  }
  [[nodiscard]] bool pure_decisions() const final { return true; }

  [[nodiscard]] std::string shared_snapshot_key() const final {
    return ContactHistoryIndex::kKey;
  }
  [[nodiscard]] std::shared_ptr<const ObservationSnapshot>
  build_shared_snapshot(const graph::SpaceTimeGraph& graph,
                        const trace::ContactTrace& trace) const final;
  void adopt_shared_snapshot(
      std::shared_ptr<const ObservationSnapshot> snapshot) final;

 protected:
  std::shared_ptr<const ContactHistoryIndex> snapshot_;
};

}  // namespace psn::forward
