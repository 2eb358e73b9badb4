// Space-time graph (paper §4.1, after Merugu et al. [13]).
//
// Time is discretized into steps of width delta (paper: 10 s). Vertices are
// (node, step) pairs. Two edge kinds:
//  * weight-0 contact edges between (x_i, T) and (x_j, T) iff x_i and x_j
//    were in contact at any time during step T;
//  * weight-1 temporal edges from (x_i, T) to (x_i, T + delta).
//
// A message can therefore traverse several contact edges "instantaneously"
// within one step (zero-weight closure) and waits cost one step each.
//
// SpaceTimeGraph precomputes, per step, the active contact edges and the
// per-node adjacency lists that the enumerator, the reachability sweep and
// the forwarding simulator all share. Storage is a contiguous space-time
// arena — one edge array with per-step offsets, and a *delta-encoded*
// adjacency stream: each (step, node) neighbor group is stored as
// [count][first][gap-1]... in 16-bit words (values >= 0xFFFF take a
// three-word escape), addressed through a per-node contact timeline
// (DESIGN.md §11). Versus the earlier dense per-(step, node) offset table
// the encoding cuts megacity_65k's arena from 272 to well under
// 230 bytes/contact; the timeline also serves neighbors(s, v) point
// lookups and sizes the contact-component index. There is no
// architectural node-count ceiling: holder sets (util::NodeSet) and the
// enumerator's membership words are sized to the population, and
// populations up to the registry's megacity_65k tier are exercised in
// tests and benches.
//
// One serial build writes the arenas in their final order (DESIGN.md §9).
// It orders the contacts' step spans by (pair, first step) with two
// counting sorts (the trace is already in start order) and walks each
// pair's spans as merged runs, so every (step, pair) is emitted once, with
// its new-contact flag, and pairs arrive in (a, b) order: scattered into
// per-step slots sized by a counting pass, each step's edges land sorted
// and deduplicated with no sort. Each active step's adjacency is then a
// degree count, a prefix sum in ascending node order and a fill over
// those sorted edges (a < b, so every neighbour list fills ascending),
// encoded straight into the per-node timeline.
//
// Alongside the arena the graph keeps an *active-step index*: the ordered
// list of steps carrying at least one contact edge, with a
// next_active_step() cursor. Sparse traces leave most steps empty, and
// contact-driven consumers (the forwarding simulator's sparse event
// timeline, the reachability sweep) iterate only active steps, making
// their per-run cost proportional to contact events rather than to
// wall-clock steps (DESIGN.md §4).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "psn/trace/contact_trace.hpp"

namespace psn::graph {

using trace::NodeId;
using trace::Seconds;

/// Discrete step index.
using Step = std::uint32_t;

/// An undirected contact edge active during one step.
struct StepEdge {
  NodeId a = 0;
  NodeId b = 0;
};

namespace detail {

/// Decodes one value of the 16-bit adjacency stream, advancing `p`. Values
/// below the escape marker are one word; 0xFFFF introduces the full 32-bit
/// value as (low, high) — required, not just an optimization, because node
/// id 65535 itself exists at the megacity tier.
[[nodiscard]] inline std::uint32_t adj_decode(
    const std::uint16_t*& p) noexcept {
  std::uint32_t v = *p++;
  if (v == 0xFFFFu) {
    v = static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 16);
    p += 2;
  }
  return v;
}

}  // namespace detail

/// The sorted neighbor list of one (step, node) pair, decoded on the fly
/// from the delta-encoded adjacency stream. A lightweight value type
/// (pointer into the immutable arena + element count): copy it, store it,
/// iterate it any number of times. size()/empty() are O(1); iteration is a
/// forward decode; operator[] re-decodes from the front and exists for
/// tests and spot lookups, not for hot loops.
class NeighborRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeId*;
    using reference = NodeId;

    iterator() = default;
    iterator(const std::uint16_t* p, std::uint32_t left) noexcept
        : p_(p), left_(left) {
      if (left_ > 0) cur_ = detail::adj_decode(p_);
    }

    [[nodiscard]] NodeId operator*() const noexcept { return cur_; }
    iterator& operator++() noexcept {
      if (--left_ > 0) cur_ += detail::adj_decode(p_) + 1;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    [[nodiscard]] friend bool operator==(const iterator& lhs,
                                         const iterator& rhs) noexcept {
      return lhs.left_ == rhs.left_;
    }

   private:
    const std::uint16_t* p_ = nullptr;
    std::uint32_t left_ = 0;  ///< values not yet consumed, incl. cur_.
    NodeId cur_ = 0;
  };

  NeighborRange() = default;
  /// `group` points at the [count] header of one encoded neighbor group.
  explicit NeighborRange(const std::uint16_t* group) noexcept : p_(group) {
    count_ = detail::adj_decode(p_);  // p_ now rests on the first value.
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] iterator begin() const noexcept { return {p_, count_}; }
  [[nodiscard]] iterator end() const noexcept { return {}; }
  /// O(i) — decodes from the front.
  [[nodiscard]] NodeId operator[](std::size_t i) const noexcept {
    iterator it = begin();
    while (i-- > 0) ++it;
    return *it;
  }

 private:
  const std::uint16_t* p_ = nullptr;  ///< first value (past the count).
  std::uint32_t count_ = 0;
};

class SpaceTimeGraph {
 public:
  /// Discretizes the trace with the given step width (default 10 s as in
  /// the paper). Throws std::invalid_argument unless delta is positive
  /// and finite, and std::length_error when the window spans more than
  /// 2^32 - 1 steps; both before anything is allocated.
  explicit SpaceTimeGraph(const trace::ContactTrace& trace,
                          Seconds delta = 10.0);

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] Seconds delta() const noexcept { return delta_; }
  [[nodiscard]] Step num_steps() const noexcept { return num_steps_; }

  /// The step whose interval [step*delta, (step+1)*delta) contains t,
  /// clamped into range; NaN maps to step 0.
  [[nodiscard]] Step step_of(Seconds t) const noexcept;

  /// End of step s; we report path arrival times at step ends since the
  /// enabling contact may occur anywhere inside the step (error <= delta,
  /// as the paper notes).
  [[nodiscard]] Seconds step_end(Step s) const noexcept {
    return (static_cast<Seconds>(s) + 1.0) * delta_;
  }

  /// Contact edges active during step s, deduplicated and sorted by (a, b).
  [[nodiscard]] std::span<const StepEdge> edges(Step s) const noexcept {
    return {edges_.data() + edge_offsets_[s],
            edges_.data() + edge_offsets_[s + 1]};
  }

  /// Flags parallel to edges(s): flag[i] != 0 iff edges(s)[i] was *not*
  /// active during step s-1, i.e. the step where a contact interval
  /// begins. Precomputed once at construction (equal to
  /// `s == 0 || !in_contact(s-1, a, b)`) so replay loops consume a flat
  /// array instead of re-deriving new-contact events with per-edge
  /// binary searches on every run.
  [[nodiscard]] std::span<const std::uint8_t> new_edge_flags(
      Step s) const noexcept {
    return {new_edge_.data() + edge_offsets_[s],
            new_edge_.data() + edge_offsets_[s + 1]};
  }

  /// Neighbors of `node` during step s (nodes it shares a contact edge
  /// with). Sorted ascending. Resolved by binary search of s in the node's
  /// contact timeline (O(log #contact-steps of node)) followed by an O(1)
  /// hop into the delta-encoded adjacency stream; an empty range comes
  /// back for (step, node) pairs with no contact.
  [[nodiscard]] NeighborRange neighbors(Step s, NodeId node) const noexcept {
    const Step* lo = node_steps_.data() + node_offsets_[node];
    const Step* hi = node_steps_.data() + node_offsets_[node + 1];
    const Step* it = std::lower_bound(lo, hi, s);
    if (it == hi || *it != s) return {};
    return NeighborRange(adj_data_.data() +
                         node_adj_begin_[static_cast<std::size_t>(
                             it - node_steps_.data())]);
  }

  /// The contact timeline of `node`: every step during which it has at
  /// least one contact edge, ascending. neighbors() binary-searches it,
  /// and graph::StepComponents sums its lengths to size its arrays.
  [[nodiscard]] std::span<const Step> contact_steps(
      NodeId node) const noexcept {
    return {node_steps_.data() + node_offsets_[node],
            node_steps_.data() + node_offsets_[node + 1]};
  }

  /// True if a and b share a contact edge during step s.
  [[nodiscard]] bool in_contact(Step s, NodeId a, NodeId b) const noexcept;

  /// The event timeline: steps with at least one contact edge, ascending.
  /// In sparse traces most steps are empty, so consumers that only react
  /// to contacts (the forwarding simulator, the reachability sweep)
  /// iterate this list instead of scanning every step.
  [[nodiscard]] std::span<const Step> active_steps() const noexcept {
    return active_steps_;
  }

  /// Number of steps that carry at least one contact edge.
  [[nodiscard]] std::size_t num_active_steps() const noexcept {
    return active_steps_.size();
  }

  /// The first active step >= s, or num_steps() when no contact occurs at
  /// or after s — the cursor form of the event timeline, for consumers
  /// that advance from an arbitrary step rather than walking the list.
  [[nodiscard]] Step next_active_step(Step s) const noexcept;

  /// Total number of (step, edge) pairs; a size measure for benchmarks.
  [[nodiscard]] std::size_t total_edges() const noexcept {
    return edges_.size();
  }

  /// Bytes held by the arenas (edge arena + flags + offsets, delta-encoded
  /// adjacency stream, per-node contact timeline, active-step index) — the
  /// memory column of the node-scaling bench, so space regressions are as
  /// visible as time ones.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return edge_offsets_.size() * sizeof(std::size_t) +
           edges_.size() * sizeof(StepEdge) +
           new_edge_.size() * sizeof(std::uint8_t) +
           adj_data_.size() * sizeof(std::uint16_t) +
           node_offsets_.size() * sizeof(std::uint32_t) +
           node_steps_.size() * sizeof(Step) +
           node_adj_begin_.size() * sizeof(std::uint32_t) +
           active_steps_.size() * sizeof(Step);
  }

 private:
  /// Both halves of the build (see file comment): the edge arena, its
  /// flags and the active-step index, then the adjacency stream and the
  /// per-node timeline over the finished edges.
  void build_edges(const trace::ContactTrace& trace);
  void build_adjacency();

  NodeId num_nodes_ = 0;
  Seconds delta_ = 10.0;
  Step num_steps_ = 0;
  /// Edge arena: edges of step s are edges_[edge_offsets_[s],
  /// edge_offsets_[s + 1]), per-step sorted by (a, b) and deduplicated.
  std::vector<std::size_t> edge_offsets_;  ///< size num_steps_ + 1.
  std::vector<StepEdge> edges_;
  std::vector<std::uint8_t> new_edge_;  ///< parallel to edges_ (see above).
  /// Delta-encoded adjacency stream: one [count][first][gap-1]... group
  /// per (step, node) pair with contacts, 16-bit words with a three-word
  /// escape for values >= 0xFFFF (detail::adj_decode). Sorted-ascending
  /// neighbor ids make the gaps small, so nearly every value is one word —
  /// at megacity_65k this replaces the dense per-(step, node) offset table
  /// that dominated the 272 B/contact arena.
  std::vector<std::uint16_t> adj_data_;
  /// Per-node contact timeline, CSR over (node -> contact steps): node v's
  /// groups are indices [node_offsets_[v], node_offsets_[v+1]) into
  /// node_steps_ (the ascending steps v has contacts in) and
  /// node_adj_begin_ (each group's start in adj_data_). 32-bit offsets:
  /// the build throws std::length_error before either index overflows.
  std::vector<std::uint32_t> node_offsets_;  ///< size num_nodes_ + 1.
  std::vector<Step> node_steps_;
  std::vector<std::uint32_t> node_adj_begin_;
  /// Active-step index: steps with >= 1 edge, ascending (the timeline the
  /// sparse replay iterates).
  std::vector<Step> active_steps_;
};

}  // namespace psn::graph
