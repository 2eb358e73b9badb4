// The contended-forwarding traffic model: per-contact bandwidth budgets
// and bounded per-node message stores with drop-oldest eviction.
//
// The paper's §6.1 simulator moves messages through infinite-bandwidth
// contacts into infinite buffers, so it can only characterize *unloaded*
// forwarding. TrafficConfig adds the two network-side resource limits that
// load makes binding:
//
//  * contact_budget_bytes — how many bytes one contact edge can carry per
//    step, shared by both directions and all messages crossing it. A
//    transfer whose message does not fit the edge's remaining budget is
//    blocked for that step (counted, not dropped: the copy stays where it
//    is and may cross on a later contact).
//  * buffer_capacity_bytes — how many bytes one node can store. A transfer
//    into a full node evicts resident copies, oldest first (earliest
//    creation time, then lowest message id, so constrained runs stay
//    bit-reproducible), until the incoming message fits; evicting the
//    last copy of an undelivered message drops the message for good.
//
// The message-side dimensions (per-message size and TTL) live on
// forward::Message. Every limit defaults to "unlimited": a default
// TrafficConfig reproduces the paper's unconstrained semantics
// bit-for-bit, which is the equivalence guarantee the simulator's tests
// pin (DESIGN.md §8).
//
// The per-node store is deliberately bounded-memory by construction
// (modeled on measure-sim's fixed-size record tables): capacity limits
// both the buffer *and* the simulator's per-step work, so a constrained
// run's cost is O(contact edges x buffer capacity) regardless of how many
// messages the workload injects.

#pragma once

#include <cstdint>
#include <limits>

namespace psn::forward {

struct TrafficConfig {
  /// Sentinel for "no limit" on both byte-denominated knobs.
  static constexpr std::uint64_t kUnlimited =
      std::numeric_limits<std::uint64_t>::max();

  /// Bytes one contact edge can carry per step (both directions pooled).
  std::uint64_t contact_budget_bytes = kUnlimited;
  /// Bytes one node can store across all held message copies.
  std::uint64_t buffer_capacity_bytes = kUnlimited;

  [[nodiscard]] constexpr bool budget_limited() const noexcept {
    return contact_budget_bytes != kUnlimited;
  }
  [[nodiscard]] constexpr bool capacity_limited() const noexcept {
    return buffer_capacity_bytes != kUnlimited;
  }
  /// True when neither network-side limit binds — the configuration under
  /// which the simulator guarantees bit-identical results to the
  /// historical unconstrained replay (and keeps its flooding fast path).
  [[nodiscard]] constexpr bool unconstrained() const noexcept {
    return !budget_limited() && !capacity_limited();
  }
};

}  // namespace psn::forward
