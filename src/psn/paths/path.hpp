// Space-time paths (paper §4).
//
// A path is a sequence of (node, time) tuples, chronologically ordered,
// where each consecutive tuple is justified by a contact. Paths are
// immutable and share suffixes: extending a path allocates one node that
// points at its predecessor, so the enumerator can hold hundreds of
// thousands of live paths cheaply. A path is its hop chain and hop count
// alone; the enumerator keeps loop freedom with its own membership words.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "psn/graph/space_time_graph.hpp"

namespace psn::paths {

using graph::NodeId;
using graph::Seconds;
using graph::Step;

/// One (node, step) hop of a path; links to the previous hop.
struct PathHop {
  NodeId node = 0;
  Step step = 0;
  std::shared_ptr<const PathHop> prev;
};

/// Immutable space-time path.
class Path {
 public:
  Path() = default;

  /// The length-zero path ((sigma, t1)).
  [[nodiscard]] static Path origin(NodeId node, Step step);

  /// This path extended by one hop to `node` at `step`.
  /// Precondition: !visits(node), step >= last_step().
  [[nodiscard]] Path extend(NodeId node, Step step) const;

  /// Number of hops (tuples minus one); the paper's shortest-path metric.
  [[nodiscard]] std::uint16_t hops() const noexcept { return hops_; }

  /// True if `node` appears anywhere on the path (walks the hop chain).
  [[nodiscard]] bool visits(NodeId node) const noexcept;

  [[nodiscard]] NodeId last_node() const noexcept { return head_->node; }
  [[nodiscard]] Step last_step() const noexcept { return head_->step; }

  [[nodiscard]] bool valid() const noexcept { return head_ != nullptr; }

  /// Materializes the tuple sequence in chronological order.
  [[nodiscard]] std::vector<std::pair<NodeId, Step>> sequence() const;

 private:
  std::shared_ptr<const PathHop> head_;
  std::uint16_t hops_ = 0;
};

/// Structural validity of a materialized path against a space-time graph:
/// starts at `src`, ends at `dst` (if delivered), steps non-decreasing, no
/// repeated node, and every same-or-later-step transition backed by a
/// contact edge. Used by tests and by debug assertions.
[[nodiscard]] bool is_structurally_valid(
    const std::vector<std::pair<NodeId, Step>>& seq,
    const graph::SpaceTimeGraph& graph, NodeId src);

}  // namespace psn::paths
