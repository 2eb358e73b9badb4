#include "psn/paths/path.hpp"

#include <algorithm>
#include <cassert>

namespace psn::paths {

Path Path::origin(NodeId node, Step step) {
  Path p;
  p.head_ = std::make_shared<const PathHop>(PathHop{node, step, nullptr});
  p.hops_ = 0;
  return p;
}

Path Path::extend(NodeId node, Step step) const {
  assert(head_ != nullptr);
  assert(!visits(node));
  assert(step >= head_->step);
  Path p;
  p.head_ = std::make_shared<const PathHop>(PathHop{node, step, head_});
  p.hops_ = static_cast<std::uint16_t>(hops_ + 1);
  return p;
}

bool Path::visits(NodeId node) const noexcept {
  for (const PathHop* hop = head_.get(); hop != nullptr;
       hop = hop->prev.get())
    if (hop->node == node) return true;
  return false;
}

std::vector<std::pair<NodeId, Step>> Path::sequence() const {
  std::vector<std::pair<NodeId, Step>> out;
  for (const PathHop* hop = head_.get(); hop != nullptr;
       hop = hop->prev.get())
    out.emplace_back(hop->node, hop->step);
  std::reverse(out.begin(), out.end());
  return out;
}

bool is_structurally_valid(const std::vector<std::pair<NodeId, Step>>& seq,
                           const graph::SpaceTimeGraph& graph, NodeId src) {
  if (seq.empty()) return false;
  if (seq.front().first != src) return false;
  // No repeated nodes.
  std::vector<NodeId> nodes;
  nodes.reserve(seq.size());
  for (const auto& [node, step] : seq) nodes.push_back(node);
  std::vector<NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return false;
  // Chronology and contact backing.
  for (std::size_t i = 1; i < seq.size(); ++i) {
    const auto [prev_node, prev_step] = seq[i - 1];
    const auto [node, step] = seq[i];
    if (step < prev_step) return false;
    if (!graph.in_contact(step, prev_node, node)) return false;
  }
  return true;
}

}  // namespace psn::paths
