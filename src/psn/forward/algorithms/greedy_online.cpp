#include "psn/forward/algorithms/greedy_online.hpp"

namespace psn::forward {

void GreedyOnlineForwarding::prepare(const graph::SpaceTimeGraph& graph,
                                     const trace::ContactTrace& /*trace*/) {
  if (snapshot_ != nullptr) {
    contacts_so_far_.clear();
    return;
  }
  contacts_so_far_.assign(graph.num_nodes(), 0);
}

void GreedyOnlineForwarding::observe_contact(NodeId a, NodeId b, Step /*s*/,
                                             bool new_contact) {
  if (!new_contact) return;
  ++contacts_so_far_[a];
  ++contacts_so_far_[b];
}

bool GreedyOnlineForwarding::should_forward(NodeId holder, NodeId peer,
                                            NodeId /*dest*/, Step s,
                                            std::uint32_t /*copies*/) {
  if (snapshot_ != nullptr)
    return snapshot_->node_count(peer, s) > snapshot_->node_count(holder, s);
  return contacts_so_far_[peer] > contacts_so_far_[holder];
}

}  // namespace psn::forward
