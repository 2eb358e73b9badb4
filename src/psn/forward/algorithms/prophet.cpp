#include "psn/forward/algorithms/prophet.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

namespace psn::forward {

// ---------------------------------------------------------------- table ---

namespace {

/// `params`, once it is in the domain the table's update and its visit
/// rule assume; std::invalid_argument otherwise.
const ProphetParams& validated(const ProphetParams& params) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("ProphetParams: ") + what);
  };
  require(params.p_init >= 0.0 && params.p_init <= 1.0,
          "p_init must be in [0, 1]");
  require(params.beta >= 0.0 && params.beta <= 1.0,
          "beta must be in [0, 1]");
  require(params.gamma >= 0.0 && params.gamma <= 1.0,
          "gamma must be in [0, 1]");
  require(params.aging_unit > 0, "aging_unit must be >= 1");
  require(!std::isnan(params.transitive_floor),
          "transitive_floor must not be NaN");
  return params;
}

}  // namespace

void ProphetTable::init(NodeId n, const ProphetParams& params) {
  params_ = params;
  rows_.resize(n);
  strong_.resize(n);
  blocks_ = (static_cast<std::size_t>(n) + 63) / 64;
  present_.resize(n * blocks_);
  rank_.resize(n * blocks_);
  clear();
}

void ProphetTable::clear() {
  for (auto& row : rows_) row.clear();
  for (auto& peers : strong_) peers.clear();
  std::fill(present_.begin(), present_.end(), 0);
  std::fill(rank_.begin(), rank_.end(), 0);
  decay_.assign(1, 1.0);
}

double ProphetTable::decay(Step units) const {
  while (decay_.size() <= units)
    decay_.push_back(decay_.back() * params_.gamma);
  return decay_[units];
}

const ProphetTable::Cell* ProphetTable::find(NodeId x, NodeId c) const {
  const std::size_t block = x * blocks_ + c / 64;
  const std::uint64_t bit = std::uint64_t{1} << (c % 64);
  const std::uint64_t word = present_[block];
  if ((word & bit) == 0) return nullptr;
  return &rows_[x][rank_[block] + static_cast<std::size_t>(
                                      std::popcount(word & (bit - 1)))];
}

void ProphetTable::insert(NodeId x, const std::vector<Cell>& cells) {
  if (cells.empty()) return;
  // The merged row is allocated at its exact size, so capacities track
  // row sizes.
  std::vector<Cell>& row = rows_[x];
  std::vector<Cell> merged;
  merged.reserve(row.size() + cells.size());
  std::merge(row.begin(), row.end(), cells.begin(), cells.end(),
             std::back_inserter(merged),
             [](const Cell& l, const Cell& r) { return l.c < r.c; });
  row = std::move(merged);
  std::uint64_t* const bits = &present_[x * blocks_];
  std::uint32_t* const rank = &rank_[x * blocks_];
  for (const Cell& cell : cells)
    bits[cell.c / 64] |= std::uint64_t{1} << (cell.c % 64);
  for (std::size_t k = cells.front().c / 64 + 1; k < blocks_; ++k)
    rank[k] = rank[k - 1] +
              static_cast<std::uint32_t>(std::popcount(bits[k - 1]));
}

double ProphetTable::read(NodeId x, NodeId c, Step s) const {
  const Cell* cell = find(x, c);
  if (cell == nullptr) return 0.0;
  // Aging epochs align to aging-unit boundaries, so the decay since the
  // write depends only on the two steps — not on when reads happened.
  return cell->v *
         decay(s / params_.aging_unit - cell->w / params_.aging_unit);
}

void ProphetTable::observe(NodeId a, NodeId b, Step s,
                           std::vector<Write>* log) {
  const Step unit = params_.aging_unit;
  const Step now = s / unit;
  // Every stored write is at or before s, so this grows the memo far
  // enough for every cell below; the walk then indexes it directly.
  (void)decay(now);
  const double* const gamma_pow = decay_.data();
  const auto aged = [gamma_pow, now, unit](const Cell* cell) {
    return cell == nullptr ? 0.0 : cell->v * gamma_pow[now - cell->w / unit];
  };
  const double beta = params_.beta;
  const double floor = params_.transitive_floor;
  const NodeId x[2] = {a, b};

  // Direct encounter updates, both directions, always stored. A fresh
  // write reads back undecayed, so these are also the P(a,b) and P(b,a)
  // the transitive candidates multiply by.
  const double old_ab = aged(find(a, b));
  const double p_ab = old_ab + (1.0 - old_ab) * params_.p_init;
  const double old_ba = aged(find(b, a));
  const double p_ba = old_ba + (1.0 - old_ba) * params_.p_init;

  NodeId c = 0;
  const auto write = [&](int side, Cell* cell, double v) {
    if (cell != nullptr)
      *cell = Cell{c, s, v};
    else
      inserts_[side].push_back(Cell{c, s, v});
    if (log != nullptr) log->push_back(Write{x[side], c, v});
  };
  for (int side = 0; side < 2; ++side) {
    inserts_[side].clear();
    kept_[side].clear();
  }
  // One walk over both strong lists in peer order, b and a joining as the
  // keys of the two direct cells. A candidate for c is P(a,b) or P(b,a)
  // times the other side's P(., c) times beta; with the first factor at
  // most 1 it cannot exceed that cell's value times beta, so only a strong
  // cell, or one the a-side just wrote, can seed a write. A peer in
  // neither list has no strong cell on either side, so no candidate for
  // it can pass the floor.
  constexpr NodeId kEnd = std::numeric_limits<NodeId>::max();
  const std::vector<NodeId>& la = strong_[a];
  const std::vector<NodeId>& lb = strong_[b];
  const NodeId direct[2] = {std::min(a, b), std::max(a, b)};
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t d = 0;
  for (;;) {
    const NodeId ca = i < la.size() ? la[i] : kEnd;
    const NodeId cb = j < lb.size() ? lb[j] : kEnd;
    const NodeId cd = d < 2 ? direct[d] : kEnd;
    c = std::min({ca, cb, cd});
    if (c == kEnd) break;
    if (ca == c) ++i;
    if (cb == c) ++j;
    if (cd == c) ++d;
    Cell* const cell_a = find(a, c);
    Cell* const cell_b = find(b, c);
    // P(a,c) and P(b,c) as this contact leaves them, and whether a cell
    // holds each.
    double p_ac = aged(cell_a);
    double p_bc = aged(cell_b);
    bool held_a = cell_a != nullptr;
    bool held_b = cell_b != nullptr;
    if (c == b) {
      write(0, cell_a, p_ac = p_ab);
      held_a = true;
    } else if (c == a) {
      write(1, cell_b, p_bc = p_ba);
      held_b = true;
    } else {
      // a-side then b-side — the b-side candidate reads the a-side value
      // just left behind, the sequencing of the eager per-peer
      // formulation.
      const double cand_a = p_ab * p_bc * beta;
      if (cand_a >= floor && cand_a > p_ac) {
        write(0, cell_a, p_ac = cand_a);
        held_a = true;
      }
      const double cand_b = p_ba * p_ac * beta;
      if (cand_b >= floor && cand_b > p_bc) {
        write(1, cell_b, p_bc = cand_b);
        held_b = true;
      }
    }
    // Both strong lists are rebuilt from what the walk leaves. Decay only
    // lowers a value, so a cell pruned here stays weak until written.
    if (held_a && p_ac * beta >= floor) kept_[0].push_back(c);
    if (held_b && p_bc * beta >= floor) kept_[1].push_back(c);
  }
  for (int side = 0; side < 2; ++side) {
    insert(x[side], inserts_[side]);
    // Copied, not swapped, so each list's capacity tracks its own size.
    strong_[x[side]] = kept_[side];
  }
}

// ------------------------------------------------------------- snapshot ---

ProphetSnapshot::ProphetSnapshot(const graph::SpaceTimeGraph& graph,
                                 const ProphetParams& params)
    : aging_unit_(validated(params).aging_unit) {
  const NodeId n = graph.num_nodes();
  columns_.resize(n);

  // Replay the trace's new-contact events through the same table the
  // per-run algorithm uses, in the same order the simulator feeds
  // observe_contact. Each step's writes collect in one flat log, then go
  // to their destination columns in log order; scattering after the step
  // keeps the appends out of the merge walk's way. Counting the step's
  // writes per column first lets a column's first write open its run with
  // the run's end already known. Columns grow by a quarter, not by
  // doubling: doubled, they held 188 MB of capacity for 135 MB of writes
  // at city_2048 when the replay ended, and the replay's peak is there.
  const auto grow = [](auto& array, std::size_t need) {
    if (need > array.capacity())
      array.reserve(std::max(need, array.size() + array.size() / 4));
  };
  {
    ProphetTable table;
    table.init(n, params);
    std::vector<ProphetTable::Write> log;
    std::vector<std::uint32_t> pending(n, 0);  // this step's, per column.
    for (const graph::Step s : graph.active_steps()) {
      const auto edges = graph.edges(s);
      const auto flags = graph.new_edge_flags(s);
      log.clear();
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (flags[i] == 0) continue;
        table.observe(edges[i].a, edges[i].b, s, &log);
      }
      for (const ProphetTable::Write& w : log) ++pending[w.c];
      for (const ProphetTable::Write& w : log) {
        Column& column = columns_[w.c];
        if (pending[w.c] != 0) {
          grow(column.steps, column.steps.size() + 1);
          grow(column.ends, column.ends.size() + 1);
          grow(column.x, column.x.size() + pending[w.c]);
          grow(column.v, column.v.size() + pending[w.c]);
          column.steps.push_back(s);
          column.ends.push_back(
              static_cast<std::uint32_t>(column.x.size() + pending[w.c]));
          pending[w.c] = 0;
        }
        column.x.push_back(w.x);
        column.v.push_back(w.v);
      }
    }
  }
  for (Column& column : columns_) {
    column.steps.shrink_to_fit();
    column.ends.shrink_to_fit();
    column.x.shrink_to_fit();
    column.v.shrink_to_fit();
  }

  // Precompute the whole decay table (the iterated product the per-run
  // table grows lazily) so reads are lock-free across sweep threads.
  const Step max_units =
      graph.num_steps() == 0
          ? 0
          : (static_cast<Step>(graph.num_steps()) - 1) / params.aging_unit;
  decay_.resize(static_cast<std::size_t>(max_units) + 1);
  decay_[0] = 1.0;
  for (std::size_t k = 1; k < decay_.size(); ++k)
    decay_[k] = decay_[k - 1] * params.gamma;
}

std::uint64_t ProphetSnapshot::bytes() const {
  std::uint64_t total = columns_.size() * sizeof(Column) +
                        decay_.size() * sizeof(double);
  for (const Column& column : columns_)
    total += column.steps.size() * sizeof(Step) +
             column.ends.size() * sizeof(std::uint32_t) +
             column.x.size() * sizeof(NodeId) +
             column.v.size() * sizeof(double);
  return total;
}

ProphetSnapshot::Cursor::Cursor(const ProphetSnapshot& snapshot)
    : snapshot_(&snapshot), dense_(snapshot.columns_.size()) {}

double ProphetSnapshot::Cursor::read(NodeId x, NodeId c, Step s) {
  const Column& column = snapshot_->columns_[c];
  const Step unit = snapshot_->aging_unit_;
  Dense& dense = dense_[c];
  if (dense.v.empty()) {
    dense.unit.assign(dense_.size(), 0);
    dense.v.assign(dense_.size(), 0.0);
  }
  // Catch up: every run at or before s, in order, so the last write of a
  // node wins — within a step too.
  for (; dense.run < column.steps.size() && column.steps[dense.run] <= s;
       ++dense.run) {
    const Step written = column.steps[dense.run] / unit;
    for (; dense.write < column.ends[dense.run]; ++dense.write) {
      const NodeId node = column.x[dense.write];
      dense.unit[node] = written;
      dense.v[node] = column.v[dense.write];
    }
  }
  // A node never written reads 0 * decay = 0. Simulation steps never
  // leave the precomputed window; a read decayed past it is vanishingly
  // small either way.
  const Step units = s / unit - dense.unit[x];
  const std::vector<double>& decay = snapshot_->decay_;
  const double d = units < decay.size() ? decay[units] : 0.0;
  return dense.v[x] * d;
}

// ------------------------------------------------------------ algorithm ---

ProphetForwarding::ProphetForwarding(ProphetParams params)
    : params_(validated(params)) {}

void ProphetForwarding::prepare(const graph::SpaceTimeGraph& graph,
                                const trace::ContactTrace& /*trace*/) {
  current_step_ = 0;
  if (snapshot_ != nullptr) {
    cursor_ = ProphetSnapshot::Cursor(*snapshot_);
    return;
  }
  table_.init(graph.num_nodes(), params_);
}

void ProphetForwarding::observe_contact(NodeId a, NodeId b, Step s,
                                        bool new_contact) {
  current_step_ = std::max(current_step_, s);
  if (!new_contact || snapshot_ != nullptr) return;
  table_.observe(a, b, s);
}

bool ProphetForwarding::should_forward(NodeId holder, NodeId peer, NodeId dest,
                                       Step s, std::uint32_t /*copies*/) {
  current_step_ = std::max(current_step_, s);
  if (snapshot_ != nullptr)
    return cursor_.read(peer, dest, s) > cursor_.read(holder, dest, s);
  return table_.read(peer, dest, s) > table_.read(holder, dest, s);
}

std::string ProphetForwarding::shared_snapshot_key() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "prophet/p%.17g-b%.17g-g%.17g-u%u-f%.17g",
                params_.p_init, params_.beta, params_.gamma,
                static_cast<unsigned>(params_.aging_unit),
                params_.transitive_floor);
  return buf;
}

std::shared_ptr<const ObservationSnapshot> ProphetForwarding::
    build_shared_snapshot(const graph::SpaceTimeGraph& graph,
                          const trace::ContactTrace& /*trace*/) const {
  return std::make_shared<ProphetSnapshot>(graph, params_);
}

void ProphetForwarding::adopt_shared_snapshot(
    std::shared_ptr<const ObservationSnapshot> snapshot) {
  snapshot_ =
      std::dynamic_pointer_cast<const ProphetSnapshot>(std::move(snapshot));
}

double ProphetForwarding::predictability(NodeId from, NodeId to) {
  if (snapshot_ != nullptr) return cursor_.read(from, to, current_step_);
  return table_.read(from, to, current_step_);
}

}  // namespace psn::forward
