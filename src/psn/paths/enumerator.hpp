// k-shortest valid path enumeration (paper Fig. 3).
//
// For a message (sigma, delta_node, t1) the enumerator replays the
// space-time graph's *event timeline* — only steps carrying at least one
// contact edge (graph::SpaceTimeGraph's active-step index) are visited,
// which is exact for enumeration: no path can extend during a contact-free
// step, so skipped gaps contribute nothing (DESIGN.md §6). The historical
// dense step-by-step sweep is retained as ReplayMode::kDense, the
// equivalence oracle the tests diff the sparse replay against.
//
// At every node the enumerator maintains the (up to) k shortest
// (fewest-hop) valid paths from the source. At each replayed step every
// stored path is extended through the step's zero-weight contact closure;
// extensions reaching the destination are emitted as deliveries in
// arrival order.
//
// Validity rules enforced (paper §4.1):
//  * loop avoidance — a path never revisits a node (O(1) via its
//    membership set);
//  * minimal progress — whenever a node holding paths is in direct contact
//    with the destination, every path it holds is delivered;
//  * first preference — a delivered path is dropped from its holder, so no
//    later continuation can reach the destination after the holder already
//    met it.
//
// Truncation: as in the paper, each node stores at most k paths by hop
// count; a candidate whose hop count does not beat the node's current k-th
// shortest is rejected (and not extended further within the step), and at
// the step's end the node keeps the k shortest of what it held and
// received, cut per hop count while the arrivals merge (detail::TrimCut).
// The rejected volume is surfaced in EnumerationEffort.
//
// All scratch lives in an EnumeratorWorkspace (per-node path-table pools,
// generation-stamped marks, frontier scratch) that is grown, never shrunk:
// a workspace warmed by one message lets subsequent messages enumerate
// with zero steady-state allocation, which is why the engine's path sweep
// owns one per worker thread. Each node's pools are parallel arrays —
// membership words in one u64 arena per pool, then multiplicities and hop
// counts — so a pooled path class costs W = ceil(nodes / 64) words, a
// multiplicity and a hop count (26 bytes at paper scale), plus a
// representative Path only while paths are recorded. A stored pool holds
// at most k classes and a fresh pool at most 2k new classes per step, and
// a pool's membership index is emptied slot by slot when its live entries
// are sparse in it. Workspaces never influence results: every iteration
// the enumerator performs walks insertion-ordered pools (the hash indexes
// are probed, never iterated), so the outcome is a pure function of
// (graph, message, config) regardless of what the workspace served before
// — the property that makes the parallel message fan-out bit-identical at
// any thread count.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "psn/paths/path.hpp"

namespace psn::paths {

/// Which step sequence the replay visits. Results are bit-identical; the
/// dense mode exists as the validation oracle.
enum class ReplayMode : std::uint8_t {
  kSparse,  ///< only the graph's active steps (the default).
  kDense,   ///< every discretized step (pre-timeline reference semantics).
};

struct EnumeratorConfig {
  /// Per-node storage bound AND the delivery target: enumeration stops at
  /// the end of the first step where cumulative deliveries reach k.
  /// Paper: k = 2000.
  std::size_t k = 2000;
  /// If false, delivered Path objects are dropped after recording time and
  /// hop count, saving memory for large sweeps.
  bool record_paths = true;
  /// Step sequence to replay (see ReplayMode).
  ReplayMode replay = ReplayMode::kSparse;
};

/// One path arrival at the destination.
///
/// Paths that differ only in waiting times (identical node sequence, the
/// same transfer repeated while a contact persists) are pooled: `count`
/// says how many such time-variants arrived together, and `path` is one
/// representative. The paper's T_n indices count every variant.
struct Delivery {
  Seconds arrival = 0.0;  ///< absolute arrival time (end of arrival step).
  Step step = 0;
  std::uint16_t hops = 0;
  std::uint64_t count = 1;  ///< number of pooled time-variants.
  Path path;  ///< representative path; valid() only if record_paths was set.
};

/// How much work one enumeration performed — the telemetry behind
/// fig06's effort summary and perfbench's paths_paper per-layer metrics.
/// All fields except steps_replayed are replay-mode invariant (a skipped
/// gap performs no work), so the dense/sparse oracle can compare them.
struct EnumerationEffort {
  /// Step bodies executed. Under kSparse this is at most the number of
  /// active steps in the window; under kDense it counts every step,
  /// including contact-free ones.
  std::uint64_t steps_replayed = 0;
  /// Contact-interval starts among the replayed steps (the graph's
  /// precomputed new_edge_flags) — the event count the sparse replay's
  /// cost is proportional to.
  std::uint64_t contact_events = 0;
  /// Peak of the network-wide stored path multiplicity (sum over nodes),
  /// sampled at step ends.
  std::uint64_t peak_stored_paths = 0;
  /// Path multiplicity rejected by the per-node k-truncation: candidates
  /// refused because a saturated node would not retain them, admissions
  /// denied by the per-step budget, and multiplicity shed by the
  /// end-of-step k-shortest trim.
  std::uint64_t truncated_candidates = 0;
};

/// The enumeration outcome for one message.
struct EnumerationResult {
  NodeId source = 0;
  NodeId destination = 0;
  Seconds t_start = 0.0;
  /// Deliveries in arrival order (step ascending; within a step, hops
  /// ascending, ties in deterministic discovery order). Size <= max(k,
  /// deliveries in the final step).
  std::vector<Delivery> deliveries;
  /// True if enumeration stopped because k deliveries were reached (rather
  /// than because the trace window ended).
  bool reached_k = false;
  EnumerationEffort effort;

  [[nodiscard]] bool delivered() const noexcept {
    return !deliveries.empty();
  }

  /// Duration of the n-th path (1-based): T_n - t_start of §4.2, or no
  /// value if fewer than n paths arrived. Pooled time-variants count
  /// individually: when the n-th path falls strictly inside a pooled
  /// delivery, its arrival time is that delivery's.
  [[nodiscard]] std::optional<Seconds> duration_of(std::size_t n) const;

  /// Optimal path duration T1 - t_start; no value if undelivered.
  [[nodiscard]] std::optional<Seconds> optimal_duration() const {
    return duration_of(1);
  }

  /// Time to explosion TE = T_k - T_1 (paper: k = 2000); no value unless k
  /// deliveries arrived.
  [[nodiscard]] std::optional<Seconds> time_to_explosion(std::size_t k) const;
};

namespace detail {

/// The membership index's hash of a member set whose word i is words[i]:
/// a SplitMix-style mix of the first two words (a missing second word
/// reads as zero), then of each nonzero word after them, so trailing zero
/// words leave it unchanged. Where an entry lands in the index, and so
/// what a probe costs, follows from it; paths_test pins its values.
[[nodiscard]] inline std::size_t member_hash(
    std::span<const std::uint64_t> words) noexcept {
  const auto word = [words](std::size_t i) -> std::uint64_t {
    return i < words.size() ? words[i] : 0;
  };
  std::uint64_t h = word(0) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  h += word(1) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 29;
  for (std::size_t i = 2; i < words.size(); ++i) {
    const std::uint64_t w = words[i];
    if (w == 0) continue;
    std::uint64_t z = w + 0x9e3779b97f4a7c15ULL * (i + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h ^= z ^ (z >> 31);
  }
  return static_cast<std::size_t>(h);
}

/// The end-of-step k-shortest trim at one node (enumerator.cpp's
/// settle_node), over the node's merged pool: its stored entries in order,
/// then the step's new classes in arrival order. The trim sheds `excess`
/// multiplicity, longest paths first and, among equal hop counts, the most
/// recently admitted first. So whole hop levels are shed from the top
/// until the excess runs out inside one level, the cut level, which keeps
/// its oldest paths up to what the excess leaves of it; shorter levels
/// keep everything. That is exactly what sorting the entries by (hops
/// descending, position descending) and shedding `excess` from the front
/// keeps.
class TrimCut {
 public:
  /// `level_totals[h]` is the merged pool's multiplicity at hop count h;
  /// 0 < excess < the sum of all levels.
  TrimCut(std::span<const std::uint64_t> level_totals, std::uint64_t excess);

  /// The multiplicity an entry with this hop count keeps. Call it once per
  /// entry of the merged pool, in merged order.
  [[nodiscard]] std::uint64_t keep(std::uint16_t hops,
                                   std::uint64_t mult) noexcept {
    if (hops != level_) return hops < level_ ? mult : 0;
    const std::uint64_t kept = std::min(mult, left_);
    left_ -= kept;
    return kept;
  }

 private:
  std::uint16_t level_ = 0;  ///< the cut level.
  std::uint64_t left_ = 0;   ///< paths the cut level may still keep.
};

}  // namespace detail

/// Reusable enumeration scratch: per-node path tables (a stored and a
/// fresh pool per node, each laid out as parallel arrays over one
/// member-word arena, plus open-addressed membership indexes that are
/// probed but never iterated), the destination-contact marks, the
/// zero-weight-closure frontier, and the per-step delivery buffer.
/// Capacities are retained, never shrunk; stale state is made unreadable
/// by 64-bit generation stamps instead of being cleared, so starting the
/// next message costs O(nodes touched by the previous one). A stored pool
/// holds at most k path classes, since arrivals are trimmed to the k
/// shortest as they merge, and a fresh pool at most the 2k new classes a
/// step may admit; a pool's index is emptied slot by slot while its live
/// entries are sparse in its high-water table.
///
/// Not thread-safe: one workspace serves one enumerate() call at a time.
/// Any graph size is accepted — the workspace grows to the largest
/// population it has served. Contents are internal to KPathEnumerator.
class EnumeratorWorkspace {
 public:
  EnumeratorWorkspace() = default;
  EnumeratorWorkspace(const EnumeratorWorkspace&) = delete;
  EnumeratorWorkspace& operator=(const EnumeratorWorkspace&) = delete;
  EnumeratorWorkspace(EnumeratorWorkspace&&) = default;
  EnumeratorWorkspace& operator=(EnumeratorWorkspace&&) = default;

  /// Heap bytes the workspace holds: the capacity of every pool array,
  /// membership index, delivery buffer and scratch vector. Representative
  /// path chains are shared with the results they end up in and are not
  /// counted.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  friend class KPathEnumerator;
  friend struct EnumerationRun;  ///< the per-call driver (enumerator.cpp).

  /// Open-addressed membership -> entry-slot map (linear probing over a
  /// power-of-two slot array). Lookups compare against the pool's word
  /// arena; the index itself is never iterated, so its layout cannot
  /// influence enumeration order or results.
  struct EntryIndex {
    std::vector<std::uint32_t> slots;
    std::size_t size = 0;
  };

  /// One node's pooled path classes (every loop-free path with a given
  /// membership set — they are interchangeable, see enumerator.cpp), in
  /// insertion order. Entry i's membership set is words[i W, (i + 1) W),
  /// W fixed per enumerate() call. Every array holds exactly the live
  /// entries, except `propagated` (empty in stored pools) and `repr`
  /// (empty unless paths are recorded).
  struct Pool {
    std::vector<std::uint64_t> words;  ///< member-word arena, stride W.
    std::vector<std::uint64_t> mult;   ///< pooled multiplicity.
    std::vector<std::uint16_t> hops;   ///< |members| - 1, cached.
    /// Multiplicity already propagated to neighbors during the current
    /// closure round.
    std::vector<std::uint64_t> propagated;
    std::vector<Path> repr;  ///< representative paths, when recording.
    EntryIndex index;
    std::uint64_t mult_sum = 0;  ///< sum of mult.

    [[nodiscard]] std::size_t size() const noexcept { return mult.size(); }
  };

  struct NodeTable {
    Pool stored;  ///< paths held across steps.
    Pool fresh;   ///< arrivals during the current step.
    std::uint16_t worst_hops = 0;   ///< max hops among stored+fresh.
    /// New membership sets this node may still admit during the current
    /// step (see enumerator.cpp).
    std::uint32_t admission_budget = 0;
    // Generation stamps; matching the current generation is the flag.
    std::uint64_t touched_stamp = 0;    ///< node used by current message.
    std::uint64_t budget_stamp = 0;     ///< admission budget is current.
    std::uint64_t meets_dst_stamp = 0;  ///< in contact with dst this step.
    std::uint64_t queued_stamp = 0;     ///< in the closure worklist.
    std::uint64_t freshened_stamp = 0;  ///< gained fresh entries this step.
    std::uint64_t active_stamp = 0;     ///< currently in the active list.
  };

  static constexpr std::uint32_t kNoPath = 0xffffffffu;
  /// One arrival at the destination during the current step; only those
  /// that reach the result become Delivery objects.
  struct StepDelivery {
    std::uint64_t count = 0;
    std::uint32_t path = kNoPath;  ///< index into step_paths_.
    std::uint16_t hops = 0;
  };

  std::vector<NodeTable> nodes_;
  std::vector<NodeId> touched_;      ///< nodes to lazily reset next message.
  std::vector<NodeId> active_;       ///< nodes holding stored entries.
  std::vector<NodeId> fresh_nodes_;  ///< nodes freshened this step.
  std::vector<NodeId> worklist_;     ///< closure FIFO (head index below).
  std::size_t worklist_head_ = 0;
  std::vector<StepDelivery> step_deliveries_;
  std::vector<Path> step_paths_;  ///< recorded delivery paths this step.
  /// Merge scratch: a node's fresh entries that are new classes, and its
  /// merged multiplicity per hop count when it must trim.
  std::vector<std::uint32_t> new_classes_;
  std::vector<std::uint64_t> level_totals_;
  std::vector<std::uint64_t> dst_mask_;  ///< nodes meeting dst (W words).
  std::vector<std::uint64_t> probe_;     ///< candidate membership (W words).
  std::size_t stride_ = 0;  ///< W of the message the pools were filled by.
  std::uint64_t stamp_ = 0;          ///< per-step generation, never reset.
  std::uint64_t message_stamp_ = 0;  ///< per-message generation, never reset.
};

/// The enumerator. Stateless across calls; safe to share between threads
/// for many messages on the same graph (each call needs its own
/// workspace).
class KPathEnumerator {
 public:
  explicit KPathEnumerator(const graph::SpaceTimeGraph& graph,
                           EnumeratorConfig config = {});

  /// Enumerates valid paths for the message (source, destination, t_start)
  /// using a private workspace.
  [[nodiscard]] EnumerationResult enumerate(NodeId source, NodeId destination,
                                            Seconds t_start) const;

  /// As above, reusing the caller's workspace so repeated messages (a path
  /// sweep's steady state) allocate nothing once the workspace is warm.
  [[nodiscard]] EnumerationResult enumerate(NodeId source, NodeId destination,
                                            Seconds t_start,
                                            EnumeratorWorkspace& workspace) const;

 private:
  const graph::SpaceTimeGraph* graph_;
  EnumeratorConfig config_;
};

}  // namespace psn::paths
