// Per-step connected components of the contact graph.
//
// Within one step, contact edges have weight zero, so a message can reach
// every node in its connected component "for free". The reachability sweep
// and the forwarding simulator's within-step relaying both reduce to
// component computations.

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "psn/graph/space_time_graph.hpp"
#include "psn/util/node_set.hpp"

namespace psn::graph {

/// Union-find over node ids; small, index-based, path-halving.
class UnionFind {
 public:
  explicit UnionFind(NodeId n);

  /// Reinitializes to n singleton sets, reusing the backing storage.
  void reset(NodeId n);

  [[nodiscard]] NodeId find(NodeId x) noexcept;
  /// Returns true if the two sets were distinct (and are now merged).
  bool unite(NodeId x, NodeId y) noexcept;

 private:
  std::vector<NodeId> parent_;
  std::vector<std::uint8_t> rank_;
};

/// Reusable storage for the scratch overload of components_at(), so
/// per-step labeling in hot replay loops allocates nothing once warm.
struct ComponentScratch {
  UnionFind uf{0};
  std::vector<NodeId> smallest;
};

/// Component labels of every node during step s of the graph. Isolated
/// nodes get singleton labels; labels are canonical (smallest member id).
[[nodiscard]] std::vector<NodeId> components_at(const SpaceTimeGraph& graph,
                                                Step s);

/// As above, but writes into `labels` (resized to num_nodes) using the
/// caller's scratch. Produces identical labels to the allocating overload.
void components_at(const SpaceTimeGraph& graph, Step s,
                   ComponentScratch& scratch, std::vector<NodeId>& labels);

/// One contact component of a step, as a full-width bitmask (the scalar
/// flood kernel's oracle input; the default kernel reads StepComponents).
struct StepComponent {
  util::NodeSet mask;
  /// Members of the component in BFS discovery order (each node exactly
  /// once); `members.front()` is the smallest member because discovery
  /// starts from the first (a, b)-sorted edge of the component.
  std::vector<NodeId> members;
};

/// Reusable storage for the component extractors (step_components_at()
/// and StepComponents::append()): a pool of StepComponents whose masks
/// keep their heap capacity across steps (cleared sparsely, through the
/// previous tenant's members) plus generation-stamped visit marks, so
/// per-step component extraction in hot replay loops allocates nothing
/// once warm.
struct StepComponentScratch {
  std::vector<StepComponent> pool;
  std::vector<std::uint64_t> stamp;
  std::uint64_t stamp_gen = 0;
  /// Per-node position within its component, for the step
  /// StepComponents::append() last extracted.
  std::vector<std::uint32_t> position;

  /// Step-local adjacency of the step last extracted, rebuilt by both
  /// extractors from the step's edge list. The graph's own neighbors()
  /// resolves a (step, node) query through a binary search of the node's
  /// contact timeline — fine for point lookups, too slow for a BFS that
  /// visits every component member. This CSR costs one O(step edges)
  /// build and then answers in O(1). Entries are generation-stamped, so
  /// nodes absent from the current step read as empty without any O(n)
  /// clearing.
  std::vector<NodeId> adj_nbr;
  std::vector<std::uint32_t> adj_begin;
  std::vector<std::uint32_t> adj_end;
  std::vector<std::uint64_t> adj_stamp;
  std::uint64_t adj_gen = 0;
  std::vector<NodeId> adj_touched;

  /// Neighbors of `v` during the step last extracted, ascending —
  /// element-for-element identical to the graph's neighbors(s, v) for
  /// that step.
  [[nodiscard]] std::span<const NodeId> step_neighbors(
      NodeId v) const noexcept {
    if (v >= adj_stamp.size() || adj_stamp[v] != adj_gen) return {};
    return {adj_nbr.data() + adj_begin[v], adj_end[v] - adj_begin[v]};
  }
};

/// Extracts the contact components of step s — the components with >= 2
/// members; isolated nodes form singletons and are omitted — into
/// scratch.pool[0..k), returning k. Components appear in canonical order
/// (ascending smallest member), matching the label order of
/// components_at(), which remains the oracle for this routine.
/// Also rebuilds scratch's step-local adjacency (step_neighbors()) for
/// step s. Cost is O(step edges), independent of the population size.
/// The scalar flood kernel's extractor; the default kernel reads
/// StepComponents instead.
std::size_t step_components_at(const SpaceTimeGraph& graph, Step s,
                               StepComponentScratch& scratch);

/// The contact components of a sequence of steps, as compressed sparse
/// rows over flat arrays:
///  * each step entry owns a range of components, in canonical order
///    (ascending smallest member — the label order of components_at());
///  * each component lists its members in ascending node order;
///  * each member lists its step neighbours as *positions* within its
///    component (ascending), so a BFS over a component indexes small
///    per-position arrays instead of population-wide ones.
/// Isolated nodes are omitted, as in step_components_at(). Components
/// depend on the graph alone, so the whole-graph index is built once per
/// scenario (forward::EpidemicForwarding publishes it as its shared
/// snapshot) and read by every flood run; runs without it extract each
/// step into a one-step index with the same append().
class StepComponents {
 public:
  /// A view of one component: its members and their neighbour positions.
  struct Component {
    std::span<const NodeId> members;  ///< ascending.
    const std::uint32_t* offsets;     ///< members.size() + 1 entries.
    const std::uint32_t* positions;   ///< indexed through `offsets`.

    /// Positions (indices into `members`) of member p's step neighbours,
    /// ascending.
    [[nodiscard]] std::span<const std::uint32_t> neighbors(
        std::uint32_t p) const noexcept {
      return {positions + offsets[p], positions + offsets[p + 1]};
    }
  };

  StepComponents() = default;

  /// Every active step of `graph`, in timeline order: entry i describes
  /// graph.active_steps()[i]. Arrays are sized exactly (member and
  /// neighbour totals are known from the graph up front).
  explicit StepComponents(const SpaceTimeGraph& graph);

  /// Empties the index, keeping its capacity, for a population of n.
  void clear(NodeId n);

  /// Appends step s's contact components as the next step entry,
  /// extracting them with `scratch` (whose step-local adjacency then
  /// describes step s). O(step edges + members log members).
  void append(const SpaceTimeGraph& graph, Step s,
              StepComponentScratch& scratch);

  /// Population the index was built over.
  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }
  /// Number of step entries.
  [[nodiscard]] std::size_t num_steps() const noexcept {
    return step_begin_.size() - 1;
  }
  /// Component ids [first, second) of step entry i.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> step_range(
      std::size_t i) const noexcept {
    return {step_begin_[i], step_begin_[i + 1]};
  }
  [[nodiscard]] Component component(std::uint32_t c) const noexcept {
    const std::uint32_t first = member_begin_[c];
    return {{members_.data() + first, member_begin_[c + 1] - first},
            nbr_begin_.data() + first,
            nbr_.data()};
  }

  /// Resident bytes of the arrays.
  [[nodiscard]] std::uint64_t bytes() const noexcept;

 private:
  NodeId num_nodes_ = 0;
  std::vector<std::uint32_t> step_begin_{0};    ///< steps + 1.
  std::vector<std::uint32_t> member_begin_{0};  ///< components + 1.
  std::vector<NodeId> members_;
  std::vector<std::uint32_t> nbr_begin_{0};  ///< member slots + 1.
  std::vector<std::uint32_t> nbr_;
};

}  // namespace psn::graph
