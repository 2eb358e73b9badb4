#include "psn/forward/algorithms/prophet.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace psn::forward {

// ---------------------------------------------------------------- table ---

namespace {

/// Peer c's cell in a peer-sorted row, or nullptr.
const ProphetTable::Cell* find_cell(const std::vector<ProphetTable::Cell>& row,
                                    NodeId c) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), c,
      [](const ProphetTable::Cell& cell, NodeId key) { return cell.c < key; });
  return it != row.end() && it->c == c ? &*it : nullptr;
}

}  // namespace

void ProphetTable::init(NodeId n, const ProphetParams& params) {
  params_ = params;
  rows_.resize(n);
  clear();
}

void ProphetTable::clear() {
  for (auto& row : rows_) row.clear();
  decay_.assign(1, 1.0);
}

double ProphetTable::decay(Step units) const {
  while (decay_.size() <= units)
    decay_.push_back(decay_.back() * params_.gamma);
  return decay_[units];
}

double ProphetTable::read(NodeId x, NodeId c, Step s) const {
  const Cell* cell = find_cell(rows_[x], c);
  if (cell == nullptr) return 0.0;
  // Aging epochs align to aging-unit boundaries, so the decay since the
  // write depends only on the two steps — not on when reads happened.
  return cell->v *
         decay(s / params_.aging_unit - cell->w / params_.aging_unit);
}

void ProphetTable::observe(NodeId a, NodeId b, Step s,
                           std::vector<Write>* log) {
  const std::vector<Cell>& ra = rows_[a];
  const std::vector<Cell>& rb = rows_[b];
  const Step unit = params_.aging_unit;
  const Step now = s / unit;
  // Every stored write is at or before s, so this grows the memo far
  // enough for every cell below; the walk then indexes it directly.
  (void)decay(now);
  const double* const gamma_pow = decay_.data();
  const auto aged = [gamma_pow, now, unit](const Cell* cell) {
    return cell == nullptr ? 0.0 : cell->v * gamma_pow[now - cell->w / unit];
  };
  const auto write = [s, log](std::vector<Cell>& row, NodeId x, NodeId c,
                              double v) {
    row.push_back(Cell{c, s, v});
    if (log != nullptr) log->push_back(Write{x, c, v});
  };

  // Direct encounter updates, both directions, always stored. A fresh
  // write reads back undecayed, so these are also the P(a,b) and P(b,a)
  // the transitive candidates multiply by.
  const double old_ab = aged(find_cell(ra, b));
  const double p_ab = old_ab + (1.0 - old_ab) * params_.p_init;
  const double old_ba = aged(find_cell(rb, a));
  const double p_ba = old_ba + (1.0 - old_ba) * params_.p_init;

  // One walk over both rows in peer order. Transitivity touches exactly
  // the peers either endpoint already has a cell for (any other candidate
  // is a product with zero); b and a join the walk as the keys of the two
  // direct cells.
  next_a_.clear();
  next_b_.clear();
  constexpr NodeId kEnd = std::numeric_limits<NodeId>::max();
  const NodeId direct[2] = {std::min(a, b), std::max(a, b)};
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t d = 0;
  for (;;) {
    const NodeId ca = i < ra.size() ? ra[i].c : kEnd;
    const NodeId cb = j < rb.size() ? rb[j].c : kEnd;
    const NodeId cd = d < 2 ? direct[d] : kEnd;
    const NodeId c = std::min({ca, cb, cd});
    if (c == kEnd) break;
    const Cell* cell_a = nullptr;
    const Cell* cell_b = nullptr;
    if (ca == c) cell_a = &ra[i++];
    if (cb == c) cell_b = &rb[j++];
    if (cd == c) ++d;
    if (c == b) {
      write(next_a_, a, b, p_ab);
      if (cell_b != nullptr) next_b_.push_back(*cell_b);
      continue;
    }
    if (c == a) {
      write(next_b_, b, a, p_ba);
      if (cell_a != nullptr) next_a_.push_back(*cell_a);
      continue;
    }
    // a-side then b-side — the b-side candidate reads the a-side value
    // just left behind, the sequencing of the eager per-peer formulation.
    const double old_a = aged(cell_a);
    const double old_b = aged(cell_b);
    double p_ac = old_a;
    const double cand_a = p_ab * old_b * params_.beta;
    if (cand_a >= params_.transitive_floor && cand_a > old_a) {
      write(next_a_, a, c, cand_a);
      p_ac = cand_a;
    } else if (cell_a != nullptr) {
      next_a_.push_back(*cell_a);
    }
    const double cand_b = p_ba * p_ac * params_.beta;
    if (cand_b >= params_.transitive_floor && cand_b > old_b) {
      write(next_b_, b, c, cand_b);
    } else if (cell_b != nullptr) {
      next_b_.push_back(*cell_b);
    }
  }
  // Copy back rather than swap: a row reallocates only when it outgrows
  // its own capacity, so capacities track row sizes, not the largest row.
  rows_[a] = next_a_;
  rows_[b] = next_b_;
}

// ------------------------------------------------------------- snapshot ---

ProphetSnapshot::ProphetSnapshot(const graph::SpaceTimeGraph& graph,
                                 const ProphetParams& params)
    : aging_unit_(params.aging_unit) {
  const NodeId n = graph.num_nodes();
  columns_.resize(n);

  // Replay the trace's new-contact events through the same table the
  // per-run algorithm uses, in the same order the simulator feeds
  // observe_contact. Each step's writes collect in one flat log, then go
  // to their destination columns in log order; scattering after the step
  // keeps the appends out of the merge walk's way. Counting the step's
  // writes per column first lets a column's first write open its run with
  // the run's end already known.
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
