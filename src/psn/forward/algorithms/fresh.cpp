#include "psn/forward/algorithms/fresh.hpp"

namespace psn::forward {

void FreshForwarding::prepare(const graph::SpaceTimeGraph& graph,
                              const trace::ContactTrace& /*trace*/) {
  n_ = graph.num_nodes();
  // Adopted instances answer from the snapshot: no per-run dense table —
  // at 65k nodes the n² last-met matrix alone would be 34 GB.
  if (snapshot_ != nullptr) {
    last_met_.clear();
    return;
  }
  last_met_.assign(static_cast<std::size_t>(n_) * n_, -1);
}

void FreshForwarding::observe_contact(NodeId a, NodeId b, Step s,
                                      bool /*new_contact*/) {
  last_met_[static_cast<std::size_t>(a) * n_ + b] = s;
  last_met_[static_cast<std::size_t>(b) * n_ + a] = s;
}

bool FreshForwarding::should_forward(NodeId holder, NodeId peer, NodeId dest,
                                     Step s, std::uint32_t /*copies*/) {
  if (snapshot_ != nullptr)
    return snapshot_->last_met(peer, dest, s) >
           snapshot_->last_met(holder, dest, s);
  const auto peer_met = last_met_[static_cast<std::size_t>(peer) * n_ + dest];
  const auto holder_met =
      last_met_[static_cast<std::size_t>(holder) * n_ + dest];
  return peer_met > holder_met;
}

}  // namespace psn::forward
