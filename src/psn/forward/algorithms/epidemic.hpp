// Epidemic forwarding (Vahdat & Becker): flood every message to every
// encountered node. Finds the optimal path whenever one exists, so it upper
// bounds both success rate and delay for every other algorithm (§4, §6.1).
//
// A flood spreads through each step's contact components, which depend on
// the graph alone. Epidemic therefore publishes the whole-graph component
// index (graph::StepComponents) as its shared snapshot: built once per
// scenario, adopted by every run, and read by the simulator's flooding
// fast path through step_components(). Un-adopted instances flood
// identically, extracting each step's components as they go.

#pragma once

#include <memory>

#include "psn/forward/algorithm.hpp"
#include "psn/graph/components.hpp"

namespace psn::forward {

/// Epidemic's shared snapshot: the contact components of every active
/// step of one graph.
class ComponentIndexSnapshot final : public ObservationSnapshot {
 public:
  /// Store key (the index has no parameters).
  static constexpr const char* kKey = "step-components";

  explicit ComponentIndexSnapshot(const graph::SpaceTimeGraph& graph)
      : index_(graph) {}

  [[nodiscard]] const graph::StepComponents& index() const noexcept {
    return index_;
  }
  [[nodiscard]] std::uint64_t bytes() const override {
    return index_.bytes();
  }

 private:
  graph::StepComponents index_;
};

class EpidemicForwarding final : public ForwardingAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "Epidemic"; }
  [[nodiscard]] bool replicates() const override { return true; }
  [[nodiscard]] bool observes_contacts() const override { return false; }
  [[nodiscard]] bool pure_decisions() const override { return true; }
  /// 0 = unbounded replication: enables the simulator's flooding fast path.
  [[nodiscard]] std::uint32_t initial_copies() const override { return 0; }

  [[nodiscard]] bool should_forward(NodeId, NodeId, NodeId, Step,
                                    std::uint32_t) override {
    return true;
  }

  [[nodiscard]] std::string shared_snapshot_key() const override {
    return ComponentIndexSnapshot::kKey;
  }
  [[nodiscard]] std::shared_ptr<const ObservationSnapshot>
  build_shared_snapshot(const graph::SpaceTimeGraph& graph,
                        const trace::ContactTrace& trace) const override;
  void adopt_shared_snapshot(
      std::shared_ptr<const ObservationSnapshot> snapshot) override;
  [[nodiscard]] const graph::StepComponents* step_components()
      const override {
    return snapshot_ ? &snapshot_->index() : nullptr;
  }

 private:
  std::shared_ptr<const ComponentIndexSnapshot> snapshot_;
};

}  // namespace psn::forward
