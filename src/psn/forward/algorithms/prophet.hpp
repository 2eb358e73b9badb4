// PRoPHET (Lindgren, Doria & Schelen, cited as [12]): probabilistic routing
// using delivery predictabilities. Each node maintains P(x, y) in [0, 1]:
//  * on an encounter: P(a,b) <- P(a,b) + (1 - P(a,b)) * P_init;
//  * aging: P <- P * gamma^(elapsed aging units);
//  * transitivity: P(a,c) <- max(P(a,c), P(a,b) * P(b,c) * beta).
// A message is copied to a peer whose predictability for the destination
// exceeds the holder's.
//
// Representation: sparse per-node rows of (peer, write-step, value) cells,
// sorted by peer, with *lazy* aging — a read decays the stored value by
// gamma^(units(s) - units(w)) from a memoized iterated-product table
// instead of eagerly multiplying whole rows. Aging epochs always align to
// aging-unit boundaries (the eager implementation only ever advanced its
// clock in whole units), so the decay between a write and a read is
// path-independent and the lazy table is an exact reformulation — not an
// approximation. The one new knob is `transitive_floor`: transitive
// updates below it are not stored, which bounds row sizes (and with them
// the shared snapshot) at scale.
//
// One encounter (a, b) is one walk in ascending peer order. The direct
// updates come first; then, per peer c, the a-side candidate
// P(a,b)·P(b,c)·beta, then the b-side candidate P(b,a)·P(a,c)·beta, where
// P(a,c) is the value the a-side step just left (written or not). That is
// the sequencing of the eager per-peer formulation: the candidates for c
// read only P(a,b) and P(b,a), fixed once the direct updates are done,
// and the two cells of c itself. (With beta and the predictabilities in
// [0, 1], at most one side can write per peer: both would need
// P(a,b)·P(b,a)·beta^2 > 1.)
//
// The walk visits only the peers that can produce a write. A cell is
// *strong* while its aged value times beta is at least transitive_floor.
// With P(a,b) <= 1 the a-side candidate for c cannot exceed P(b,c)·beta
// (rounding is monotone), so only a strong cell of b can seed it, and the
// b-side likewise; decay only lowers a value, so a weak cell stays weak
// until written. So each row keeps a peer-sorted list holding every strong
// cell's peer, rebuilt from what the walk leaves, and the walk merges the
// two lists with a and b: ~116 visits per contact at city_2048, out of
// ~2,344 cells in the two rows. With p_init, gamma and beta in [0, 1] no
// predictability exceeds 1 (again by monotone rounding), so the bound
// always holds. Cells are found in O(1) through a presence bitmap per row
// and the count of cells before each 64-peer block; a contact's new cells
// merge into each row in one pass, into an exact-size array, so
// capacities track row sizes.
//
// The same ProphetTable drives both the per-run algorithm and the
// ProphetSnapshot builder. The builder hands observe() one flat log per
// step, and the table appends each write (x, c, v) to it; after each step
// the log is scattered onto destination columns, opening one run per
// touched column, so the build never holds a whole-trace log. Column c
// holds every write P(x, c) := v in chronological order, as runs of one
// step each. Columns grow by a quarter at a time, and every column is
// shrunk to exact size once the replay ends.
//
// An adopted ProphetForwarding reads the snapshot through a per-run
// Cursor, which prepare() rewinds. Every query a message makes names its
// destination, so the first query for c unpacks a dense per-node (aging
// unit, value) array for column c, and each query at step s first
// applies c's runs with step <= s. P(x, c) is then one array read times
// the decay since the write: O(1) per query, and n * 12 B per distinct
// destination queried (at most n^2 * 12 B per run). Cursor steps must
// not decrease between rewinds, as in any replay of a trace. Identical
// code making identical write decisions is what makes adopted
// (snapshot-backed) runs bit-identical to per-run replay.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "psn/forward/algorithm.hpp"

namespace psn::forward {

/// PRoPHET's parameters. Their domain, the published one, which the
/// table's update and its visit rule rely on: p_init, beta and gamma in
/// [0, 1], aging_unit >= 1 and transitive_floor not NaN. The
/// ProphetForwarding and ProphetSnapshot constructors throw
/// std::invalid_argument outside it.
struct ProphetParams {
  double p_init = 0.75;
  double beta = 0.25;
  double gamma = 0.98;  ///< per aging unit.
  Step aging_unit = 6;  ///< steps per aging application (~1 min at 10 s).
  /// Transitive updates below this value are dropped instead of stored.
  /// Direct encounter updates are always stored. Bounds the sparse rows
  /// (and the shared snapshot) at scale; 0 stores everything.
  double transitive_floor = 0.05;
};

/// The predictability state machine, shared by the per-run algorithm and
/// the snapshot builder (see the file comment for why that sharing is
/// what guarantees bit-identity).
class ProphetTable {
 public:
  /// P(x, c) = v, written at step w; rows hold one per (x, c) ever written.
  struct Cell {
    NodeId c;
    Step w;
    double v;
  };
  /// One write P(x, c) := v, as observe() logs it.
  struct Write {
    NodeId x;
    NodeId c;
    double v;
  };

  void init(NodeId n, const ProphetParams& params);
  /// Clears all rows (capacity retained) for another run.
  void clear();

  /// Applies one new-contact event between distinct nodes a and b at step
  /// s, appending every write, in the order made, to `log` when one is
  /// given. Steps must not decrease across calls (as in any replay of a
  /// trace).
  void observe(NodeId a, NodeId b, Step s, std::vector<Write>* log = nullptr);

  /// P(x, c) as of step s (lazily decayed from the last write).
  [[nodiscard]] double read(NodeId x, NodeId c, Step s) const;

 private:
  /// gamma^units as an iterated product, memoized.
  [[nodiscard]] double decay(Step units) const;

  /// Row x's cell for peer c, or nullptr: one presence bit, and one
  /// popcount of its 64-peer block offset by the block's rank.
  [[nodiscard]] const Cell* find(NodeId x, NodeId c) const;
  [[nodiscard]] Cell* find(NodeId x, NodeId c) {
    return const_cast<Cell*>(std::as_const(*this).find(x, c));
  }
  /// Merges peer-sorted cells for peers row x lacks into it in one pass,
  /// then sets their presence bits and re-ranks the blocks after them.
  void insert(NodeId x, const std::vector<Cell>& cells);

  std::vector<std::vector<Cell>> rows_;  ///< peer-sorted, exact capacity.
  /// Per row, peer-sorted: every peer whose cell is strong (aged value
  /// times beta at or above the floor), and weak ones not yet pruned.
  std::vector<std::vector<NodeId>> strong_;
  std::size_t blocks_ = 0;  ///< 64-peer blocks per row.
  std::vector<std::uint64_t> present_;  ///< row x's peer bits, row-major.
  std::vector<std::uint32_t> rank_;  ///< row x's cells in earlier blocks.
  /// decay_[k] = gamma^k, grown on demand (iterated product — appending
  /// is deterministic whatever the read order, so lazy growth is safe in
  /// the single-threaded per-run table).
  mutable std::vector<double> decay_;
  // observe() scratch, per side (a, b): the new cells and the strong list
  // being rebuilt.
  std::vector<Cell> inserts_[2];
  std::vector<NodeId> kept_[2];
  ProphetParams params_;
};

/// Immutable step-indexed PRoPHET predictabilities for one scenario: the
/// full write history of a ProphetTable replay of the trace, laid out by
/// destination column and read through a Cursor. Thread-safe after
/// construction (the decay table is precomputed over the whole window);
/// each reader owns its cursor.
class ProphetSnapshot final : public ObservationSnapshot {
 public:
  /// Throws std::invalid_argument for parameters outside their domain
  /// (see ProphetParams).
  ProphetSnapshot(const graph::SpaceTimeGraph& graph,
                  const ProphetParams& params);

  /// One run's reader: P(x, c) as of step s is the last write at or
  /// before s, decayed to s, matching ProphetTable::read after the same
  /// events. Steps must not decrease across reads; a fresh cursor starts
  /// before the first write. The snapshot must outlive the cursor.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const ProphetSnapshot& snapshot);

    [[nodiscard]] double read(NodeId x, NodeId c, Step s);

   private:
    /// Column c unpacked up to its first `run` runs (`write` writes):
    /// per node, the aging unit of its last write and the value, or
    /// empty until the first query for c.
    struct Dense {
      std::uint32_t run = 0;
      std::uint32_t write = 0;
      std::vector<Step> unit;
      std::vector<double> v;
    };

    const ProphetSnapshot* snapshot_ = nullptr;
    std::vector<Dense> dense_;  ///< indexed by destination.
  };

  [[nodiscard]] std::uint64_t bytes() const override;

 private:
  /// One destination's writes, each array allocated at its exact size.
  /// Run r is every write of step steps[r], at [ends[r - 1], ends[r]) of
  /// x/v (from 0 for r = 0), in the order the replay made them.
  struct Column {
    std::vector<Step> steps;  ///< strictly ascending.
    std::vector<std::uint32_t> ends;
    std::vector<NodeId> x;
    std::vector<double> v;
  };

  std::vector<Column> columns_;
  std::vector<double> decay_;  ///< gamma^k for every reachable k.
  Step aging_unit_ = 1;
};

class ProphetForwarding final : public ForwardingAlgorithm {
 public:
  /// Throws std::invalid_argument for parameters outside their domain
  /// (see ProphetParams).
  explicit ProphetForwarding(ProphetParams params = {});

  [[nodiscard]] std::string name() const override { return "PRoPHET"; }
  [[nodiscard]] bool replicates() const override { return true; }

  void prepare(const graph::SpaceTimeGraph& graph,
               const trace::ContactTrace& trace) override;
  void observe_contact(NodeId a, NodeId b, Step s, bool new_contact) override;
  [[nodiscard]] bool should_forward(NodeId holder, NodeId peer, NodeId dest,
                                    Step s, std::uint32_t copies) override;

  /// Shared-snapshot protocol: the key carries every parameter the
  /// predictabilities depend on, so differently-tuned instances never
  /// share state.
  [[nodiscard]] std::string shared_snapshot_key() const override;
  [[nodiscard]] std::shared_ptr<const ObservationSnapshot>
  build_shared_snapshot(const graph::SpaceTimeGraph& graph,
                        const trace::ContactTrace& trace) const override;
  void adopt_shared_snapshot(
      std::shared_ptr<const ObservationSnapshot> snapshot) override;
  [[nodiscard]] bool observes_contacts() const override {
    return snapshot_ == nullptr;
  }
  /// Reads at one step are idempotent, adopted (cursor) or not.
  [[nodiscard]] bool pure_decisions() const override { return true; }

  /// P(from, to) as of the latest step this instance has seen (through
  /// either observe_contact or should_forward) — test/diagnostic surface.
  /// An adopted instance reads through its cursor, like should_forward.
  [[nodiscard]] double predictability(NodeId from, NodeId to);

 private:
  ProphetParams params_;
  ProphetTable table_;
  std::shared_ptr<const ProphetSnapshot> snapshot_;
  ProphetSnapshot::Cursor cursor_;  ///< rewound by prepare().
  Step current_step_ = 0;
};

}  // namespace psn::forward
