#include "psn/forward/algorithms/greedy.hpp"

namespace psn::forward {

void GreedyForwarding::prepare(const graph::SpaceTimeGraph& graph,
                               const trace::ContactTrace& /*trace*/) {
  n_ = graph.num_nodes();
  if (snapshot_ != nullptr) {
    met_count_.clear();
    return;
  }
  met_count_.assign(static_cast<std::size_t>(n_) * n_, 0);
}

void GreedyForwarding::observe_contact(NodeId a, NodeId b, Step /*s*/,
                                       bool new_contact) {
  if (!new_contact) return;  // count contact events, not steps.
  ++met_count_[static_cast<std::size_t>(a) * n_ + b];
  ++met_count_[static_cast<std::size_t>(b) * n_ + a];
}

bool GreedyForwarding::should_forward(NodeId holder, NodeId peer, NodeId dest,
                                      Step s, std::uint32_t /*copies*/) {
  if (snapshot_ != nullptr)
    return snapshot_->pair_count(peer, dest, s) >
           snapshot_->pair_count(holder, dest, s);
  return met_count_[static_cast<std::size_t>(peer) * n_ + dest] >
         met_count_[static_cast<std::size_t>(holder) * n_ + dest];
}

}  // namespace psn::forward
