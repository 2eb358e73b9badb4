// Trace-driven forwarding simulator (paper §6.1), extended with the
// contended-forwarding traffic model (bandwidth budgets, bounded buffers,
// TTL — forward/traffic.hpp).
//
// The simulator replays the space-time graph's *event timeline*: only
// steps carrying at least one contact edge (graph::SpaceTimeGraph's
// active-step index) are visited, so per-run cost is proportional to
// contact events rather than to wall-clock steps. A contact-free step is a
// complete no-op in both replay modes: message activation, TTL expiry, and
// forwarding all happen at the next active step — observationally
// identical to acting inside the gap, since holder state is only ever read
// where a contact edge exists, and what makes the dense replay
// (ReplayMode::kDense) a bit-exact equivalence oracle for the sparse
// timeline, drop/expiry/eviction events included.
//
// Within one step the simulator relays to a fixpoint: a forwarding chain
// can cross several contact edges in one step (the zero-weight closure of
// §4.1), which is what makes Epidemic achieve exactly the optimal
// delivery time T(sigma, delta, t1). A pass that changed anything is
// followed by another. Under ContactScan::kHolderIncident, unlimited
// budgets and buffers and an algorithm with pure_decisions(), passes after
// a step's first are delta passes (semi-naive evaluation): within a step a
// refusal stays a refusal until the holder acquires something new, so
// each later pass visits only the edges of nodes that acquired a message
// and relays only the entries acquired since that edge direction last ran.
// Pass counts, and so truncation, are those of full passes (DESIGN §11).
//
// Traffic semantics (DESIGN.md §8):
//  * TTL — a message is live during step s iff its expiry time
//    (created + ttl) is > the step's start; expiry is checked before the
//    step's first contact, so a TTL elapsing inside a skipped gap expires
//    the message exactly. Expiry frees every held copy.
//  * contact budget — each edge carries at most contact_budget_bytes per
//    step, pooled across directions and relay passes; a blocked transfer
//    is counted and retried at later contacts.
//  * bounded buffers — a node stores at most buffer_capacity_bytes;
//    admission evicts residents oldest first, and evicting the last copy
//    of an undelivered message drops it for good.
// With every limit infinite (the defaults) the replay is bit-identical to
// the historical unconstrained simulator.
//
// Modeling choices mirror the paper where unconstrained: zero transmission
// time, symmetric contacts, and minimal progress (delivery to an
// encountered destination is automatic and not delegated to the
// algorithm). Delivery frees every remaining copy of the message — the
// delivered-message-is-inert rule the unconstrained simulator always had,
// extended to buffer accounting.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "psn/forward/algorithm.hpp"
#include "psn/forward/message.hpp"
#include "psn/forward/traffic.hpp"
#include "psn/graph/components.hpp"
#include "psn/util/node_set.hpp"

namespace psn::forward {

/// Which step sequence the replay visits. Results are bit-identical; the
/// dense mode exists as the validation oracle.
enum class ReplayMode : std::uint8_t {
  kSparse,  ///< only the graph's active steps (the default).
  kDense,   ///< every discretized step (pre-timeline reference semantics).
};

/// Which contact edges the generic (non-flood) relay path examines.
/// Results are bit-identical; the full scan exists as the validation
/// oracle, exactly as ReplayMode::kDense does for the sparse timeline.
enum class ContactScan : std::uint8_t {
  /// Holder-incident fast path (the default): every active step's edges
  /// pass one holder filter, and the relay worklist carries only edges
  /// incident to holders (expanded mid-pass as transfers mint new
  /// holders), so relay and ordering cost follow holder contacts rather
  /// than the trace's total contacts. A step with no holder-incident edge
  /// costs the filter pass and stays a no-op. The filter applies when the
  /// algorithm keeps no online contact history (observes_contacts() ==
  /// false) under sparse replay; flooding runs use their own closure
  /// kernels either way. Delta passes (see the file comment) apply to any
  /// non-flood run of an algorithm with pure_decisions() under unlimited
  /// budgets and buffers.
  kHolderIncident,
  /// Scan every step edge at every active step, relaying every holder's
  /// whole list in every pass (the pre-index reference semantics,
  /// retained verbatim as the equivalence oracle).
  kFull,
};

/// Which implementation the flooding fast path uses for the per-step
/// epidemic closure. Results are bit-identical (outcomes, hops,
/// transmissions); the scalar kernel exists as the validation oracle,
/// exactly as ReplayMode::kDense does for the sparse timeline.
enum class FloodKernel : std::uint8_t {
  /// Component-index closure (the default): reads each step's components
  /// from a graph::StepComponents — the algorithm's adopted whole-graph
  /// index (ForwardingAlgorithm::step_components()) or, failing that, a
  /// one-step index extracted into the workspace — counts holders member
  /// by member, and settles hop levels with a multi-source BFS over
  /// member positions.
  kComponentIndex,
  /// Per-node reference kernel: step_components_at() masks, full-width
  /// mask scans and a per-node Dial bucket queue, retained as the
  /// equivalence oracle (it never reads the component index).
  kScalar,
};

/// One fully-specified simulation: what to run (algorithm), over what
/// (graph + trace), with which workload (messages), under which traffic
/// limits, replayed how, seeded with what. This is the simulator's single
/// entry point; engine::run_sweep builds one per run. All pointers are
/// non-owning and must outlive the simulate() call; simulate() validates
/// them and throws std::invalid_argument on nulls or malformed messages.
struct SimulationRequest {
  ForwardingAlgorithm* algorithm = nullptr;
  const graph::SpaceTimeGraph* graph = nullptr;
  const trace::ContactTrace* trace = nullptr;
  const std::vector<Message>* messages = nullptr;
  /// Bandwidth/buffer limits (defaults are unlimited — paper semantics).
  TrafficConfig traffic;
  /// Maximum relay passes within one step (a safety bound on the fixpoint
  /// loop; chains longer than this are truncated).
  std::uint32_t max_relay_passes = 128;
  /// Seed of the run: it keys the stateless per-(seed, step) edge-order
  /// hash (the tie-break among simultaneous forwarding opportunities —
  /// hashed per edge rather than shuffled, so any subset of a step's edges
  /// sorts into the same relative order).
  std::uint64_t seed = 1;
  /// Step sequence to replay (see ReplayMode).
  ReplayMode replay = ReplayMode::kSparse;
  /// Contact-edge coverage of the generic relay path (see ContactScan).
  ContactScan contact_scan = ContactScan::kHolderIncident;
  /// Epidemic-closure implementation (see FloodKernel). Only consulted on
  /// the flooding fast path; the generic relay path has one kernel.
  FloodKernel flood_kernel = FloodKernel::kComponentIndex;
};

namespace detail {

/// The simulator's reusable scratch state. Internal: the layout is an
/// implementation detail of simulate() and may change at any release;
/// callers interact only with SimulatorWorkspace as an opaque handle
/// (which is what decouples workspace ownership — the sweep engine, tests,
/// drivers — from the simulator's internals without friend declarations).
struct SimulatorState {
  struct MessageState {
    util::NodeSet holders;
    std::vector<std::uint32_t> hops;    ///< per holding node.
    std::vector<std::uint32_t> copies;  ///< per holding node (quota schemes).
    bool delivered = false;
    bool active = false;   ///< activated (holder state initialized).
    bool expired = false;  ///< TTL elapsed; every copy discarded.
    bool dropped = false;  ///< last copy evicted; undeliverable.
  };

  /// One generic-path worklist entry: an edge tagged with its per-(seed,
  /// step) order hash and its remaining per-step byte budget (shared by
  /// both directions and all relay passes). Endpoints are normalized
  /// a < b; the worklist sorts by (key, a, b) — a strict total order, so
  /// the holder-incident subset sorts into exactly the relative order it
  /// has inside the full scan's list (see sort_worklist()). `ran[0]`
  /// (a→b) and `ran[1]` (b→a) hold the acquisition clock at that
  /// direction's last relay, relative to the step's start and saturating
  /// (an earlier stamp only re-offers entries); 0 until it first runs.
  struct WorkEdge {
    std::uint64_t key;
    NodeId a;
    NodeId b;
    std::uint64_t budget;
    std::uint32_t ran[2] = {0, 0};
  };

  /// One per-node list entry: a message the node took, stamped with the
  /// run's acquisition clock when it was appended. Lists are appended in
  /// acquisition order and compacted in order, so stamps never decrease
  /// along a list and the entries newer than any stamp form a suffix.
  struct Held {
    std::uint32_t id;
    std::uint64_t stamp;
  };

  std::vector<MessageState> states;
  std::vector<std::uint32_t> order;  ///< message ids by creation time.
  std::vector<std::uint32_t> expiry_order;  ///< ids by expiry time.
  std::vector<std::vector<Held>> at_node;  ///< generic-path lists.
  std::vector<std::uint32_t> active_msgs;
  /// Per-node buffer occupancy in bytes (bounded-buffer runs only).
  std::vector<std::uint64_t> store_bytes;
  /// The generic relay path's per-step edge worklist (see WorkEdge), and
  /// the bucket pass's scatter target and bucket boundaries
  /// (sort_worklist()).
  std::vector<WorkEdge> work;
  std::vector<WorkEdge> work_scratch;
  std::vector<std::size_t> bucket_ends;
  /// Delta passes: the nodes that acquired a message in the current pass,
  /// and a later pass's pending edges (a min-heap in worklist order).
  std::vector<NodeId> acquirers;
  std::vector<WorkEdge> visits;
  /// Holder-filter state (ContactScan::kHolderIncident only).
  /// `holder_count[v]` counts live message copies node v holds;
  /// `node_stamp` is a generation-stamped per-node worklist-membership
  /// mark (one generation per processed step, monotone across runs — a
  /// warm workspace needs no re-zeroing).
  std::vector<std::uint32_t> holder_count;
  std::vector<std::uint64_t> node_stamp;
  std::uint64_t stamp_gen = 0;
  /// Scalar-kernel hop-settle scratch. `mark` entries equal `mark_gen`
  /// only for nodes settled in the current generation; the generation
  /// counter is never reset, so stale runs can't alias (64-bit: no
  /// wraparound).
  std::vector<std::uint32_t> level;
  std::vector<std::uint64_t> mark;
  std::uint64_t mark_gen = 0;
  /// Bucket queue of the scalar hop settle (levels are small, so Dial's
  /// algorithm beats a binary heap): buckets[l] holds the level-l
  /// frontier. The component-index settle parks its holder seeds here by
  /// level, as member positions. Left empty between settles.
  std::vector<std::vector<NodeId>> buckets;
  /// Component extraction scratch: step_components_at()'s masks for the
  /// scalar kernel, StepComponents::append()'s marks for the index
  /// kernel, and the step-local adjacency both read.
  graph::StepComponentScratch components;
  /// The one-step index the component-index kernel extracts each flood
  /// step into when the algorithm adopted no whole-graph index.
  graph::StepComponents step_index;
  /// Component-index settle: relative hop level per member position,
  /// and the BFS queue of positions.
  std::vector<std::uint32_t> slot_level;
  std::vector<std::uint32_t> slot_queue;
};

/// Sorts `work` by (key, a, b), the worklist's strict total order, with a
/// bucket pass: the keys are splitmix64 outputs, uniform over 64 bits, so
/// scattering the m edges by the key's top ceil(log2 m) bits (clamped to
/// 1..16) into `scratch` leaves about one edge per bucket, and std::sort
/// orders each bucket. Expected linear time, O(m log m) worst case, and
/// the same order as std::sort under that comparator for any keys.
/// `scratch` and `bucket_ends` are grown, never shrunk.
void sort_worklist(std::vector<SimulatorState::WorkEdge>& work,
                   std::vector<SimulatorState::WorkEdge>& scratch,
                   std::vector<std::size_t>& bucket_ends);

}  // namespace detail

/// Reusable simulator scratch: per-message holder sets and hop arrays,
/// per-node message lists and buffer occupancy, the flooding path's
/// hop-settle and component scratch, and the relay path's per-step edge
/// worklist with its bucket scratch. A workspace warmed by one run lets
/// subsequent runs execute without heap allocation (capacities are
/// retained, never shrunk), which is why the sweep engine owns one per
/// worker thread.
///
/// Not thread-safe: one workspace serves one simulate() call at a time.
/// Any population/workload size is accepted — the workspace grows to the
/// largest run it has served. Contents are internal to simulate().
class SimulatorWorkspace {
 public:
  SimulatorWorkspace() = default;
  SimulatorWorkspace(const SimulatorWorkspace&) = delete;
  SimulatorWorkspace& operator=(const SimulatorWorkspace&) = delete;
  SimulatorWorkspace(SimulatorWorkspace&&) = default;
  SimulatorWorkspace& operator=(SimulatorWorkspace&&) = default;

  /// The simulator's view of the scratch state. Internal — not a stable
  /// API surface; exists so simulate() needs no friend declaration.
  [[nodiscard]] detail::SimulatorState& internal_state() noexcept {
    return state_;
  }

 private:
  detail::SimulatorState state_;
};

/// Runs the request. The algorithm's prepare() is called before the run,
/// with the trace for oracle knowledge.
[[nodiscard]] SimulationResult simulate(const SimulationRequest& request);

/// As above, reusing the caller's workspace so repeated runs (a sweep's
/// steady state) allocate nothing once the workspace is warm. The
/// workspace never influences results (asserted by forward_test's
/// workspace-reuse equivalence).
[[nodiscard]] SimulationResult simulate(const SimulationRequest& request,
                                        SimulatorWorkspace& workspace);

}  // namespace psn::forward
