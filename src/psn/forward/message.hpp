// Messages and per-message simulation outcomes.

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "psn/graph/space_time_graph.hpp"

namespace psn::forward {

using graph::NodeId;
using graph::Seconds;
using graph::Step;

/// TTL value meaning "never expires" (the historical semantics).
inline constexpr Seconds kNoTtl = std::numeric_limits<Seconds>::infinity();

/// A unicast message (sigma, delta, t1) as in §4, extended with the
/// traffic dimensions of the contended-forwarding model (size and TTL;
/// the network-side limits live in forward::TrafficConfig). The defaults
/// — unit size, infinite TTL — reproduce the paper's unconstrained
/// message exactly.
struct Message {
  std::uint32_t id = 0;
  NodeId source = 0;
  NodeId destination = 0;
  Seconds created = 0.0;
  /// Bytes this message occupies in buffers and on contact budgets.
  std::uint32_t size_bytes = 1;
  /// Lifetime: the message expires at `created + ttl` (kNoTtl = never).
  Seconds ttl = kNoTtl;

  /// Absolute expiry time; +infinity when the message never expires.
  [[nodiscard]] Seconds expiry_time() const noexcept { return created + ttl; }
};

/// What happened to one message under one forwarding algorithm.
struct MessageOutcome {
  bool delivered = false;
  Seconds delay = 0.0;      ///< delivery time - creation time; if delivered.
  /// Hop count of the delivering copy. 32 bits: a single copy that moves
  /// back and forth within a long contact makes tens of thousands of hops.
  std::uint32_t hops = 0;
  /// TTL elapsed before delivery: every copy was discarded at
  /// `created + ttl` (exactly, even across skipped sparse-timeline gaps).
  bool expired = false;
  /// The last surviving copy was evicted from a bounded buffer (or the
  /// source buffer could never hold the message): undeliverable for good.
  bool dropped = false;
};

/// Work one simulate() call did, counted on paths it takes anyway. These
/// are test and calibration instruments: they depend only on the request
/// (not on the machine or thread count), and no result reads them.
struct SimulationEffort {
  std::uint64_t active_steps = 0;  ///< steps with contacts, processed.
  /// Step edges the holder filter examined (holder-incident scan only).
  std::uint64_t filter_edge_visits = 0;
  std::uint64_t worklist_edges = 0;  ///< edges relay worklists began with.
  std::uint64_t spliced_edges = 0;   ///< edges spliced in for new holders.
  /// Holder-incident steps that took the complete edge list instead,
  /// because most nodes held something.
  std::uint64_t complete_steps = 0;
  std::uint64_t relay_passes = 0;  ///< relay passes over all steps.
  std::uint64_t relay_calls = 0;   ///< edge directions relayed.
  std::uint64_t decisions = 0;     ///< should_forward() calls.
  std::uint64_t transfers = 0;     ///< relay copies and moves (not deliveries).
  /// (message, contact component) pairs the flood kernels examined.
  std::uint64_t flood_components = 0;

  SimulationEffort& operator+=(const SimulationEffort& o) noexcept {
    active_steps += o.active_steps;
    filter_edge_visits += o.filter_edge_visits;
    worklist_edges += o.worklist_edges;
    spliced_edges += o.spliced_edges;
    complete_steps += o.complete_steps;
    relay_passes += o.relay_passes;
    relay_calls += o.relay_calls;
    decisions += o.decisions;
    transfers += o.transfers;
    flood_components += o.flood_components;
    return *this;
  }
};

/// A batch result: outcome[i] corresponds to messages[i].
struct SimulationResult {
  std::vector<MessageOutcome> outcomes;
  /// Total message transmissions (relays, copies, and final deliveries)
  /// performed during the run — the forwarding *cost* the paper's §7
  /// leaves open; our cost-extension benches report it per algorithm.
  std::uint64_t transmissions = 0;
  /// Steps whose within-step relay fixpoint was cut off by
  /// SimulationRequest::max_relay_passes while still making progress.
  /// Nonzero means forwarding chains were silently truncated; the
  /// paper-scale integration tests assert this stays zero.
  std::uint64_t truncated_relay_steps = 0;
  /// Messages whose TTL elapsed undelivered (outcome.expired count).
  std::uint64_t expirations = 0;
  /// Copies evicted from bounded buffers to admit incoming messages.
  std::uint64_t evictions = 0;
  /// Messages that lost their last copy to eviction (outcome.dropped
  /// count) — distinct from expirations, which are TTL deaths.
  std::uint64_t drops = 0;
  /// Transfers refused because the contact edge's per-step byte budget
  /// could not fit the message (the copy stays put; not a message death).
  std::uint64_t budget_blocked = 0;
  /// Messages refused at activation because they exceed the whole buffer
  /// capacity every node has: stillborn at their source, so each is also
  /// counted in `drops`.
  std::uint64_t buffer_rejections = 0;
  /// The run's work counters (see SimulationEffort).
  SimulationEffort effort;

  [[nodiscard]] std::size_t delivered_count() const noexcept;
};

}  // namespace psn::forward
