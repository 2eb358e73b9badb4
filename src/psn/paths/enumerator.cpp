#include "psn/paths/enumerator.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace psn::paths {

// Implementation notes.
//
// Loop-free paths visit each node at most once, so a path's hop count is
// exactly |membership set| - 1 — the membership set alone determines
// everything the enumerator must decide later (which extensions are
// loop-free, how many hops, who holds the path). Two stored paths with the
// same membership set are therefore interchangeable and are pooled: each
// node keeps one pool entry per membership set, whose multiplicity counts
// pooled paths (distinct visit orders and distinct time-variants — the
// same relay repeated on a persistent contact yields formally distinct
// paths differing only in timestamps; the paper's Fig. 3 algorithm
// generates and counts them all, and the multiplicities reproduce those
// counts without materializing each variant).
//
// A representative Path object (for Figs. 12/14/15, which need actual node
// sequences) is kept only when config.record_paths is set; otherwise
// entries are just member words plus counters, and the whole sweep does
// no per-path allocation.
//
// Layout: each node's stored and fresh pools are parallel arrays. All
// membership sets of one enumerate() call have the same word count W =
// ceil(nodes / 64), so a pool keeps them back to back in one u64 arena
// (entry i at words[i W, (i + 1) W)); the membership index compares
// candidate words against that arena. Arrays hold exactly the live
// entries, so an index past the live prefix is an out-of-range access a
// bounds-checked build reports.
//
// Determinism: every loop the enumerator runs iterates either the graph's
// sorted adjacency, the sorted active-node list, or a pool in insertion
// order; the membership hash indexes are probed, never iterated.
// Insertion order is itself a pure function of (graph, message, config),
// so results cannot depend on workspace history, hash-table layout, or
// which thread's workspace served the message — the property the parallel
// path sweep's bit-identical-at-any-thread-count guarantee rests on.

namespace {
constexpr std::uint32_t kEmptySlot = 0xffffffffu;
/// A pool's index is emptied entry by entry, not filled whole, while the
/// live entries number under 1/kSparseClearRatio of its slots.
constexpr std::size_t kSparseClearRatio = 16;

[[nodiscard]] constexpr std::uint64_t bit_of(NodeId v) noexcept {
  return std::uint64_t{1} << (v & 63);
}
}  // namespace

/// One enumerate() call: the per-step pipeline over a workspace. Declared
/// a friend of EnumeratorWorkspace so the scratch structures stay private.
struct EnumerationRun {
  using EntryIndex = EnumeratorWorkspace::EntryIndex;
  using Pool = EnumeratorWorkspace::Pool;
  using NodeTable = EnumeratorWorkspace::NodeTable;
  using StepDelivery = EnumeratorWorkspace::StepDelivery;
  static constexpr std::uint32_t kNoPath = EnumeratorWorkspace::kNoPath;

  const graph::SpaceTimeGraph& g;
  const EnumeratorConfig& config;
  EnumeratorWorkspace& ws;
  EnumerationResult& result;
  NodeId source;
  NodeId destination;

  std::uint64_t k = 0;              ///< config.k, widened once.
  bool recording = false;
  std::size_t stride = 0;           ///< membership words per entry (W).
  std::uint32_t per_step_admissions = 0;
  std::size_t record_cap = 0;
  Step current_step = 0;
  std::uint64_t total_stored = 0;  ///< network-wide stored multiplicity.
  std::uint64_t cumulative = 0;    ///< deliveries emitted to the result.

  // --- membership words ---

  [[nodiscard]] const std::uint64_t* members(const Pool& pool,
                                             std::size_t i) const {
    return pool.words.data() + i * stride;
  }

  [[nodiscard]] static bool has(const std::uint64_t* set, NodeId v) noexcept {
    return (set[v >> 6] & bit_of(v)) != 0;
  }

  [[nodiscard]] bool meets_dst_mask(const std::uint64_t* set) const {
    for (std::size_t w = 0; w < stride; ++w)
      if ((set[w] & ws.dst_mask_[w]) != 0) return true;
    return false;
  }

  [[nodiscard]] std::size_t hash(const std::uint64_t* set) const noexcept {
    return detail::member_hash(std::span<const std::uint64_t>(set, stride));
  }

  // --- membership index: open addressing, probed but never iterated ---

  [[nodiscard]] std::uint32_t index_find(const Pool& pool,
                                         const std::uint64_t* key) const {
    const EntryIndex& index = pool.index;
    if (index.slots.empty()) return kEmptySlot;
    const std::size_t mask = index.slots.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const std::uint32_t slot = index.slots[i];
      if (slot == kEmptySlot) return kEmptySlot;
      if (std::equal(key, key + stride, members(pool, slot))) return slot;
    }
  }

  void index_place(Pool& pool, std::uint32_t idx) const {
    EntryIndex& index = pool.index;
    const std::size_t mask = index.slots.size() - 1;
    std::size_t i = hash(members(pool, idx)) & mask;
    while (index.slots[i] != kEmptySlot) i = (i + 1) & mask;
    index.slots[i] = idx;
  }

  /// Rebuilds the index over every live entry of the pool.
  void index_rebuild(Pool& pool) const {
    EntryIndex& index = pool.index;
    const std::size_t live = pool.size();
    std::size_t cap = index.slots.size() < 16 ? 16 : index.slots.size();
    while (cap * 3 < (live + 1) * 4) cap *= 2;
    if (index.slots.size() != cap) index.slots.resize(cap);
    std::fill(index.slots.begin(), index.slots.end(), kEmptySlot);
    index.size = live;
    for (std::size_t i = 0; i < live; ++i)
      index_place(pool, static_cast<std::uint32_t>(i));
  }

  /// Registers the pool's just-appended last entry.
  void index_insert(Pool& pool) const {
    EntryIndex& index = pool.index;
    if ((index.size + 1) * 4 > index.slots.size() * 3) {
      index_rebuild(pool);
      return;
    }
    index_place(pool, static_cast<std::uint32_t>(pool.size() - 1));
    ++index.size;
  }

  // --- pool helpers ---

  /// Appends an entry with membership `key` (W words, not aliasing the
  /// pool's own arena); the caller appends propagated/repr as needed.
  void push(Pool& pool, const std::uint64_t* key, std::uint16_t hops,
            std::uint64_t mult) const {
    pool.words.insert(pool.words.end(), key, key + stride);
    pool.hops.push_back(hops);
    pool.mult.push_back(mult);
    pool.mult_sum += mult;
  }

  /// Keeps the first `live` entries (a stored pool's compaction target),
  /// releasing the representatives of the rest.
  void truncate(Pool& pool, std::size_t live) const {
    pool.words.resize(live * stride);
    pool.mult.resize(live);
    pool.hops.resize(live);
    if (recording) pool.repr.resize(live);
  }

  /// Moves stored entry `from` down to slot `to` (< from) during an
  /// order-preserving compaction.
  void move_down(Pool& pool, std::size_t from, std::size_t to) const {
    std::copy_n(members(pool, from), stride,
                pool.words.data() + to * stride);
    pool.mult[to] = pool.mult[from];
    pool.hops[to] = pool.hops[from];
    if (recording) pool.repr[to] = std::move(pool.repr[from]);
  }

  /// Empties the pool. Its index keeps its high-water table, which the
  /// live entries may fill only sparsely (a fresh pool that admitted 2k
  /// classes once and a handful since): then each entry's slot is found
  /// by its probe and emptied alone, instead of filling the whole table.
  void clear(Pool& pool) const {
    EntryIndex& index = pool.index;
    if (pool.size() * kSparseClearRatio < index.slots.size()) {
      const std::size_t mask = index.slots.size() - 1;
      for (std::uint32_t e = 0; e < pool.size(); ++e) {
        std::size_t i = hash(members(pool, e)) & mask;
        while (index.slots[i] != e) i = (i + 1) & mask;
        index.slots[i] = kEmptySlot;
      }
    } else {
      std::fill(index.slots.begin(), index.slots.end(), kEmptySlot);
    }
    index.size = 0;
    pool.words.clear();
    pool.mult.clear();
    pool.hops.clear();
    pool.propagated.clear();
    pool.repr.clear();
    pool.mult_sum = 0;
  }

  [[nodiscard]] const Path* repr_of(const Pool& pool, std::size_t i) const {
    return recording ? &pool.repr[i] : nullptr;
  }

  // --- table helpers ---

  /// Marks v as used by this message so the next message resets only the
  /// tables that actually carry state.
  void touch(NodeId v) {
    NodeTable& t = ws.nodes_[v];
    if (t.touched_stamp == ws.message_stamp_) return;
    t.touched_stamp = ws.message_stamp_;
    ws.touched_.push_back(v);
  }

  [[nodiscard]] bool meets_dst(NodeId v) const noexcept {
    return ws.nodes_[v].meets_dst_stamp == ws.stamp_;
  }

  /// Per-step admission budget, initialized lazily on first use within
  /// the step (equivalent to resetting every node each step, without the
  /// O(nodes) sweep).
  std::uint32_t& budget(NodeTable& t) const {
    if (t.budget_stamp != ws.stamp_) {
      t.budget_stamp = ws.stamp_;
      t.admission_budget = per_step_admissions;
    }
    return t.admission_budget;
  }

  void enqueue(NodeId v) {
    NodeTable& t = ws.nodes_[v];
    if (t.queued_stamp == ws.stamp_) return;
    t.queued_stamp = ws.stamp_;
    ws.worklist_.push_back(v);
  }

  // --- deliveries ---

  /// Records a delivery whose full path is `prefix` + destination. The
  /// prefix path pointer is null when not recording.
  void record_delivery(std::uint16_t prefix_hops, const Path* prefix,
                       std::uint64_t mult) {
    std::uint32_t path = kNoPath;
    if (prefix != nullptr && ws.step_deliveries_.size() < record_cap) {
      path = static_cast<std::uint32_t>(ws.step_paths_.size());
      ws.step_paths_.push_back(prefix->extend(destination, current_step));
    }
    ws.step_deliveries_.push_back(
        {mult, path, static_cast<std::uint16_t>(prefix_hops + 1)});
  }

  /// Offers `mult` paths with membership `set` (held by a neighbor of v;
  /// representative `repr`, null when not recording) to node v: delivery
  /// if v meets the destination, storage in v's fresh pool otherwise.
  void offer(const std::uint64_t* set, std::uint16_t prefix_hops,
             const Path* repr, std::uint64_t mult, NodeId v) {
    if (has(set, v)) return;  // loop avoidance
    if (v == destination) {
      record_delivery(prefix_hops, repr, mult);
      return;
    }
    const auto hops = static_cast<std::uint16_t>(prefix_hops + 1);
    if (meets_dst(v)) {
      // v would hand the message straight to the destination (minimal
      // progress) and must not retain it (first preference), so this
      // arrival becomes a delivery through v.
      if (repr != nullptr && ws.step_deliveries_.size() < record_cap) {
        const Path through = repr->extend(v, current_step);
        record_delivery(hops, &through, mult);
      } else {
        record_delivery(hops, nullptr, mult);
      }
      return;
    }
    // First preference, network-wide: if the prefix passes through any
    // node that meets the destination this step, every delivery of a
    // continuation at a later step is invalid (that node should have
    // handed the message over now), so the extension must not be stored.
    // Same-step deliveries of such prefixes are produced by the branches
    // above.
    if (meets_dst_mask(set)) return;
    NodeTable& t = ws.nodes_[v];
    Pool& fresh = t.fresh;
    // Saturation pre-check before touching the index: once a node holds k
    // paths (stored + fresh), only equal-or-shorter candidates can matter
    // (increments of existing sets or displacements).
    const bool full = t.stored.mult_sum + fresh.mult_sum >= k;
    if (full && hops > t.worst_hops) {
      result.effort.truncated_candidates += mult;
      return;
    }
    std::uint64_t* probe = ws.probe_.data();
    std::copy_n(set, stride, probe);
    probe[v >> 6] |= bit_of(v);
    const std::uint32_t idx = index_find(fresh, probe);
    if (idx != kEmptySlot) {
      fresh.mult[idx] += mult;
      fresh.mult_sum += mult;
      enqueue(v);
      return;
    }
    // New set at v: admit if v is not saturated or the candidate beats
    // v's current worst retained hop count (the k-shortest rule; excess
    // is trimmed at the end-of-step merge), subject to the per-step
    // admission budget.
    if (full && hops >= t.worst_hops) {
      result.effort.truncated_candidates += mult;
      return;
    }
    std::uint32_t& remaining = budget(t);
    if (remaining == 0) {
      result.effort.truncated_candidates += mult;
      return;
    }
    --remaining;
    touch(v);
    push(fresh, probe, hops, mult);
    fresh.propagated.push_back(0);
    if (repr != nullptr) fresh.repr.push_back(repr->extend(v, current_step));
    index_insert(fresh);
    if (hops > t.worst_hops) t.worst_hops = hops;
    if (t.freshened_stamp != ws.stamp_) {
      t.freshened_stamp = ws.stamp_;
      ws.fresh_nodes_.push_back(v);
    }
    enqueue(v);
  }

  // --- per-node end-of-step maintenance (phase 3) ---

  /// Merges node t's fresh arrivals into its stored pool and keeps the k
  /// shortest: one pass folds each arrival whose class is already stored
  /// into that entry and lists the new classes; when the merged pool holds
  /// more than k paths, its per-hop-count totals give the cut
  /// (detail::TrimCut), and only surviving stored entries are compacted
  /// and only kept new classes appended, so the stored arrays never hold
  /// more than k classes.
  void merge_fresh(NodeTable& t) {
    Pool& stored = t.stored;
    Pool& fresh = t.fresh;
    const std::uint64_t merged = stored.mult_sum + fresh.mult_sum;
    const bool trim = merged > k;
    auto& levels = ws.level_totals_;
    if (trim) {
      // t.worst_hops bounds every stored and fresh hop count.
      levels.assign(std::size_t{t.worst_hops} + 1, 0);
      for (std::size_t r = 0; r < stored.size(); ++r)
        levels[stored.hops[r]] += stored.mult[r];
    }
    auto& added = ws.new_classes_;
    added.clear();
    for (std::uint32_t i = 0; i < fresh.size(); ++i) {
      const std::uint64_t mult = fresh.mult[i];
      if (trim) levels[fresh.hops[i]] += mult;
      const std::uint32_t idx = index_find(stored, members(fresh, i));
      if (idx != kEmptySlot) {
        stored.mult[idx] += mult;
        stored.mult_sum += mult;
      } else {
        added.push_back(i);
      }
    }
    total_stored += fresh.mult_sum;

    if (!trim) {
      for (const std::uint32_t i : added) adopt(stored, fresh, i, true);
      clear(fresh);
      return;
    }
    const std::uint64_t excess = merged - k;
    detail::TrimCut cut(levels, excess);
    std::size_t live = 0;
    for (std::size_t r = 0; r < stored.size(); ++r) {
      const std::uint64_t kept = cut.keep(stored.hops[r], stored.mult[r]);
      if (kept == 0) continue;
      stored.mult[r] = kept;
      if (live != r) move_down(stored, r, live);
      ++live;
    }
    // The index stays valid while no stored entry moved.
    const bool moved = live != stored.size();
    truncate(stored, live);
    for (const std::uint32_t i : added) {
      const std::uint64_t kept = cut.keep(fresh.hops[i], fresh.mult[i]);
      if (kept == 0) continue;
      fresh.mult[i] = kept;
      adopt(stored, fresh, i, !moved);
    }
    if (moved) index_rebuild(stored);
    stored.mult_sum = k;
    result.effort.truncated_candidates += excess;
    total_stored -= excess;
    clear(fresh);
  }

  /// Appends fresh entry i (multiplicity fresh.mult[i]) to the stored
  /// pool, taking its representative, and registers it in the index
  /// unless a rebuild follows.
  void adopt(Pool& stored, Pool& fresh, std::uint32_t i,
             bool register_entry) const {
    push(stored, members(fresh, i), fresh.hops[i], fresh.mult[i]);
    if (recording) stored.repr.push_back(std::move(fresh.repr[i]));
    if (register_entry) index_insert(stored);
  }

  /// Purges first-preference violators, merges fresh arrivals into
  /// storage, and enforces the k bound at node u.
  void settle_node(NodeId u, bool dst_active) {
    NodeTable& t = ws.nodes_[u];
    Pool& stored = t.stored;
    Pool& fresh = t.fresh;
    bool dirty = false;

    // Purge: stored paths passing through a node that met the destination
    // this step can never yield a valid delivery again. Survivors keep
    // their order.
    if (dst_active && stored.size() > 0) {
      std::size_t live = 0;
      for (std::size_t r = 0; r < stored.size(); ++r) {
        if (meets_dst_mask(members(stored, r))) {
          stored.mult_sum -= stored.mult[r];
          total_stored -= stored.mult[r];
          dirty = true;
        } else {
          if (live != r) move_down(stored, r, live);
          ++live;
        }
      }
      if (dirty) {
        truncate(stored, live);
        index_rebuild(stored);
      }
    }

    if (fresh.size() > 0) {
      dirty = true;
      merge_fresh(t);
    }

    if (dirty) {
      t.worst_hops = 0;
      for (const std::uint16_t h : stored.hops)
        t.worst_hops = std::max(t.worst_hops, h);
    }
  }

  // --- the step body (identical under both replay modes) ---

  /// Moves this step's arrivals into the result: shorter paths first
  /// (stable, so ties keep the deterministic discovery order), per-path
  /// granularity up to the k-th delivery. A dense step can produce vastly
  /// more arrivals in the same instant; those are pooled into one
  /// aggregate record (they share the arrival time, so T_n for n <= k is
  /// unaffected and totals stay exact).
  void emit_step_deliveries(Step s) {
    auto& step = ws.step_deliveries_;
    std::stable_sort(step.begin(), step.end(),
                     [](const StepDelivery& lhs, const StepDelivery& rhs) {
                       return lhs.hops < rhs.hops;
                     });
    const Seconds arrival = g.step_end(s);
    const auto emit = [&](std::uint16_t hops,
                          std::uint64_t count) -> Delivery& {
      Delivery& d = result.deliveries.emplace_back();
      d.arrival = arrival;
      d.step = s;
      d.hops = hops;
      d.count = count;
      cumulative += count;
      return d;
    };
    std::size_t i = 0;
    for (; i < step.size() && cumulative < k; ++i) {
      Delivery& d = emit(step[i].hops, step[i].count);
      if (step[i].path != kNoPath)
        d.path = std::move(ws.step_paths_[step[i].path]);
    }
    if (i < step.size()) {
      std::uint64_t rest = 0;
      for (std::size_t j = i; j < step.size(); ++j) rest += step[j].count;
      emit(step[i].hops, rest);
    }
  }

  /// Replays step s; returns false when enumeration is finished (k
  /// deliveries reached, or no stored path anywhere can ever extend
  /// again).
  bool run_step(Step s) {
    current_step = s;
    ++ws.stamp_;
    ++result.effort.steps_replayed;
    ws.step_deliveries_.clear();
    ws.step_paths_.clear();
    ws.worklist_.clear();
    ws.worklist_head_ = 0;
    ws.fresh_nodes_.clear();

    // Nodes in direct contact with the destination this step.
    std::fill(ws.dst_mask_.begin(), ws.dst_mask_.end(), 0);
    const auto dst_neighbors = g.neighbors(s, destination);
    for (const NodeId v : dst_neighbors) {
      ws.nodes_[v].meets_dst_stamp = ws.stamp_;
      ws.dst_mask_[v >> 6] |= bit_of(v);
    }
    const bool dst_active = !dst_neighbors.empty();

    for (const std::uint8_t flag : g.new_edge_flags(s))
      result.effort.contact_events += flag;

    // Canonical phase-1 order: ascending node id over nodes still holding
    // stored paths (exactly the nodes the historical full scan did work
    // for). Nodes emptied by earlier steps drop out here.
    auto& active = ws.active_;
    std::sort(active.begin(), active.end());
    active.erase(std::remove_if(active.begin(), active.end(),
                                [this](NodeId v) {
                                  NodeTable& t = ws.nodes_[v];
                                  if (t.stored.size() > 0) return false;
                                  t.active_stamp = 0;
                                  return true;
                                }),
                 active.end());

    // Phase 1: stored paths propagate across this step's contact edges.
    for (const NodeId u : active) {
      NodeTable& t = ws.nodes_[u];
      Pool& stored = t.stored;
      const auto neighbors = g.neighbors(s, u);
      if (neighbors.empty()) continue;
      if (meets_dst(u)) {
        // Minimal progress: u hands everything it holds to the destination
        // and (first preference) retains nothing; no lateral copies.
        for (std::size_t i = 0; i < stored.size(); ++i)
          record_delivery(stored.hops[i], repr_of(stored, i), stored.mult[i]);
        total_stored -= stored.mult_sum;
        clear(stored);
        t.worst_hops = 0;
        continue;
      }
      for (std::size_t i = 0; i < stored.size(); ++i) {
        const std::uint64_t* set = members(stored, i);
        for (const NodeId v : neighbors)
          offer(set, stored.hops[i], repr_of(stored, i), stored.mult[i], v);
      }
    }

    // Phase 2: zero-weight closure — fresh arrivals keep propagating
    // within the same step until no node gains new multiplicity. The
    // dequeue budget bounds pathological cascades in very dense steps (a
    // message relayed through dozens of hops inside one 10 s step is a
    // discretization artifact, not behaviour worth unbounded work).
    std::uint64_t dequeue_budget =
        64ULL * static_cast<std::uint64_t>(g.num_nodes());
    while (ws.worklist_head_ < ws.worklist_.size() && dequeue_budget-- > 0) {
      const NodeId u = ws.worklist_[ws.worklist_head_++];
      NodeTable& t = ws.nodes_[u];
      Pool& fresh = t.fresh;
      t.queued_stamp = 0;
      const auto neighbors = g.neighbors(s, u);
      // offer() only mutates neighbors' fresh pools (v != u always), so
      // iterating u's own pool here is safe; if a longer loop-free route
      // later feeds multiplicity back into u, u is re-queued and the
      // `propagated` bookkeeping resumes exactly where it left off.
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        if (fresh.mult[i] == fresh.propagated[i]) continue;
        const std::uint64_t delta = fresh.mult[i] - fresh.propagated[i];
        fresh.propagated[i] = fresh.mult[i];
        const std::uint64_t* set = members(fresh, i);
        for (const NodeId v : neighbors)
          offer(set, fresh.hops[i], repr_of(fresh, i), delta, v);
      }
    }
    // If the budget ran out, clear the queued flags of abandoned nodes so
    // the next step's worklist starts clean.
    for (std::size_t i = ws.worklist_head_; i < ws.worklist_.size(); ++i)
      ws.nodes_[ws.worklist_[i]].queued_stamp = 0;

    // Phase 3: settle every node that holds or received paths. Active
    // nodes first (ascending), then nodes freshened into emptiness-to-life
    // this step (discovery order); per-node settling is independent, so
    // the split does not affect results.
    for (const NodeId u : active) settle_node(u, dst_active);
    for (const NodeId u : ws.fresh_nodes_) {
      NodeTable& t = ws.nodes_[u];
      if (t.active_stamp == ws.message_stamp_) continue;  // settled above.
      settle_node(u, dst_active);
      if (t.stored.size() > 0) {
        t.active_stamp = ws.message_stamp_;
        ws.active_.push_back(u);
      }
    }

    // det-waiver(effort-read): peak tracking into the counter itself.
    if (total_stored > result.effort.peak_stored_paths)
      result.effort.peak_stored_paths = total_stored;

    if (!ws.step_deliveries_.empty()) {
      emit_step_deliveries(s);
      if (cumulative >= k) {
        result.reached_k = true;
        return false;
      }
    }

    // Exact early exit: with nothing stored anywhere, no offer can ever
    // happen again, so later steps are no-ops in both replay modes.
    return total_stored > 0;
  }

  void run() {
    k = config.k;
    recording = config.record_paths;
    // Both budgets scale with k; k is clamped first so that no k a caller
    // can pass wraps them (the admission cap is reached at k = 2^19, and
    // the record cap stays below kNoPath, far beyond any step's arrivals).
    per_step_admissions = static_cast<std::uint32_t>(
        2 * std::min<std::uint64_t>(k, std::uint64_t{1} << 19));
    // Beyond this many recorded deliveries in one step, further paths are
    // counted but not materialized: only the k shortest ever reach the
    // caller, and a dense step can exceed k by orders of magnitude.
    record_cap = 4 * std::min<std::uint64_t>(k, kNoPath / 4);

    // Lazy reset: undo exactly what the previous message on this
    // workspace touched, then stamp a new message generation. Its pools
    // are cleared under the stride their entries were written with, since
    // one workspace serves graphs of any size.
    ++ws.message_stamp_;
    if (ws.nodes_.size() < g.num_nodes()) ws.nodes_.resize(g.num_nodes());
    stride = ws.stride_;
    for (const NodeId v : ws.touched_) {
      NodeTable& t = ws.nodes_[v];
      clear(t.stored);
      clear(t.fresh);
      t.worst_hops = 0;
    }
    stride = ws.stride_ = (static_cast<std::size_t>(g.num_nodes()) + 63) / 64;
    ws.touched_.clear();
    ws.active_.clear();
    ws.dst_mask_.assign(stride, 0);
    ws.probe_.assign(stride, 0);

    const Step start = g.step_of(result.t_start);

    // Seed the origin at the source.
    touch(source);
    NodeTable& st = ws.nodes_[source];
    std::uint64_t* origin = ws.probe_.data();
    origin[source >> 6] |= bit_of(source);
    push(st.stored, origin, 0, 1);
    if (recording) st.stored.repr.push_back(Path::origin(source, start));
    index_insert(st.stored);
    st.active_stamp = ws.message_stamp_;
    ws.active_.push_back(source);
    total_stored = 1;
    result.effort.peak_stored_paths = 1;

    if (config.replay == ReplayMode::kDense) {
      for (Step s = start; s < g.num_steps(); ++s)
        if (!run_step(s)) break;
    } else {
      const auto timeline = g.active_steps();
      const auto* it =
          std::lower_bound(timeline.data(), timeline.data() + timeline.size(),
                           start);
      for (; it != timeline.data() + timeline.size(); ++it)
        if (!run_step(*it)) break;
    }
  }
};

std::size_t EnumeratorWorkspace::bytes() const noexcept {
  const auto held = [](const auto& v) {
    return v.capacity() * sizeof(*v.data());
  };
  std::size_t total = held(nodes_) + held(touched_) + held(active_) +
                      held(fresh_nodes_) + held(worklist_) +
                      held(step_deliveries_) + held(step_paths_) +
                      held(new_classes_) + held(level_totals_) +
                      held(dst_mask_) + held(probe_);
  for (const NodeTable& t : nodes_) {
    for (const Pool* pool : {&t.stored, &t.fresh}) {
      total += held(pool->words) + held(pool->mult) + held(pool->hops) +
               held(pool->propagated) + held(pool->repr) +
               held(pool->index.slots);
    }
  }
  return total;
}

detail::TrimCut::TrimCut(std::span<const std::uint64_t> level_totals,
                         std::uint64_t excess) {
  for (std::size_t h = level_totals.size(); h-- > 0;) {
    if (excess <= level_totals[h]) {
      level_ = static_cast<std::uint16_t>(h);
      left_ = level_totals[h] - excess;
      return;
    }
    excess -= level_totals[h];
  }
}

KPathEnumerator::KPathEnumerator(const graph::SpaceTimeGraph& graph,
                                 EnumeratorConfig config)
    : graph_(&graph), config_(config) {
  if (config_.k == 0)
    throw std::invalid_argument("KPathEnumerator: k must be positive");
}

std::optional<Seconds> EnumerationResult::duration_of(std::size_t n) const {
  if (n == 0) return std::nullopt;
  std::uint64_t cumulative = 0;
  for (const Delivery& d : deliveries) {
    cumulative += d.count;
    if (cumulative >= n) return d.arrival - t_start;
  }
  return std::nullopt;
}

std::optional<Seconds> EnumerationResult::time_to_explosion(
    std::size_t k) const {
  const auto t1 = duration_of(1);
  const auto tk = duration_of(k);
  if (!t1 || !tk) return std::nullopt;
  return *tk - *t1;
}

EnumerationResult KPathEnumerator::enumerate(NodeId source,
                                             NodeId destination,
                                             Seconds t_start) const {
  EnumeratorWorkspace workspace;
  return enumerate(source, destination, t_start, workspace);
}

EnumerationResult KPathEnumerator::enumerate(
    NodeId source, NodeId destination, Seconds t_start,
    EnumeratorWorkspace& workspace) const {
  const auto& g = *graph_;
  if (source >= g.num_nodes() || destination >= g.num_nodes())
    throw std::invalid_argument("enumerate: node id out of range");
  if (source == destination)
    throw std::invalid_argument("enumerate: source equals destination");

  EnumerationResult result;
  result.source = source;
  result.destination = destination;
  result.t_start = t_start;

  EnumerationRun run{g, config_, workspace, result, source, destination};
  run.run();
  return result;
}

}  // namespace psn::paths
