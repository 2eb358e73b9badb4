#include "psn/forward/contact_history.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace psn::forward {

ContactHistoryIndex::ContactHistoryIndex(const graph::SpaceTimeGraph& graph) {
  const NodeId n = graph.num_nodes();

  // Pass 1: materialize runs from the new-contact flags. A flagged edge
  // opens a run; an unflagged one extends the pair's open run (contact
  // runs are contiguous step intervals, so the open run is always the
  // pair's latest).
  struct Run {
    NodeId a, b;
    Step start, end;
  };
  std::vector<Run> runs;
  // det-waiver(unordered-container): keyed lookup/overwrite only, never
  // iterated — `runs` (a vector in trace order) carries all ordered
  // output; hash order cannot reach the CSR this pass feeds.
  std::unordered_map<std::uint64_t, std::uint32_t> open;  // pair -> run idx.
  open.reserve(1024);
  for (const graph::Step s : graph.active_steps()) {
    const auto edges = graph.edges(s);
    const auto flags = graph.new_edge_flags(s);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const NodeId a = std::min(edges[i].a, edges[i].b);
      const NodeId b = std::max(edges[i].a, edges[i].b);
      const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
      if (flags[i] != 0) {
        open[key] = static_cast<std::uint32_t>(runs.size());
        runs.push_back({a, b, s, s});
      } else {
        runs[open.at(key)].end = s;
      }
    }
  }

  // Pass 2: symmetric CSR by node, runs sorted by (neighbor, start).
  run_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Run& r : runs) {
    ++run_offsets_[r.a + 1];
    ++run_offsets_[r.b + 1];
  }
  for (NodeId v = 0; v < n; ++v) run_offsets_[v + 1] += run_offsets_[v];
  const std::size_t total = 2 * runs.size();
  run_nbr_.resize(total);
  run_start_.resize(total);
  run_end_.resize(total);
  std::vector<std::uint64_t> cursor(run_offsets_.begin(),
                                    run_offsets_.end() - 1);
  const auto place = [&](NodeId at, NodeId nbr, const Run& r) {
    const std::uint64_t i = cursor[at]++;
    run_nbr_[i] = nbr;
    run_start_[i] = r.start;
    run_end_[i] = r.end;
  };
  for (const Run& r : runs) {
    place(r.a, r.b, r);
    place(r.b, r.a, r);
  }
  // Index sort per node: runs were appended in step order, so each
  // node's slice is already start-sorted; a stable sort by neighbor
  // yields (neighbor, start) without comparing starts.
  std::vector<std::uint32_t> idx;
  std::vector<NodeId> tn;
  std::vector<Step> ts, te;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t lo = run_offsets_[v];
    const std::uint64_t hi = run_offsets_[v + 1];
    const std::size_t len = hi - lo;
    if (len < 2) continue;
    idx.resize(len);
    for (std::uint32_t i = 0; i < len; ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::uint32_t l, std::uint32_t r) {
                       return run_nbr_[lo + l] < run_nbr_[lo + r];
                     });
    tn.assign(run_nbr_.begin() + static_cast<std::ptrdiff_t>(lo),
              run_nbr_.begin() + static_cast<std::ptrdiff_t>(hi));
    ts.assign(run_start_.begin() + static_cast<std::ptrdiff_t>(lo),
              run_start_.begin() + static_cast<std::ptrdiff_t>(hi));
    te.assign(run_end_.begin() + static_cast<std::ptrdiff_t>(lo),
              run_end_.begin() + static_cast<std::ptrdiff_t>(hi));
    for (std::size_t i = 0; i < len; ++i) {
      run_nbr_[lo + i] = tn[idx[i]];
      run_start_[lo + i] = ts[idx[i]];
      run_end_[lo + i] = te[idx[i]];
    }
  }

  // Pass 3: per-node incident run starts, ascending (the pre-sort order
  // of pass 2 was exactly step order, so re-collect and sort per node).
  start_times_.resize(total);
  std::copy(run_offsets_.begin(), run_offsets_.end() - 1, cursor.begin());
  for (const Run& r : runs) {
    start_times_[cursor[r.a]++] = r.start;
    start_times_[cursor[r.b]++] = r.start;
  }
  // Appended in run-creation (step) order: already ascending per node.
}

std::int64_t ContactHistoryIndex::last_met(NodeId x, NodeId d, Step s) const {
  const auto lo = static_cast<std::ptrdiff_t>(run_offsets_[x]);
  const auto hi = static_cast<std::ptrdiff_t>(run_offsets_[x + 1]);
  const auto nb = run_nbr_.begin();
  const auto first = std::lower_bound(nb + lo, nb + hi, d);
  const auto last = std::upper_bound(first, nb + hi, d);
  if (first == last) return -1;
  // Latest run of (x, d) starting at or before s.
  const auto ss = run_start_.begin();
  const auto it = std::upper_bound(ss + (first - nb), ss + (last - nb), s);
  if (it == ss + (first - nb)) return -1;
  const auto ri = static_cast<std::size_t>(it - ss) - 1;
  return std::min<std::int64_t>(run_end_[ri], s);
}

std::uint32_t ContactHistoryIndex::pair_count(NodeId x, NodeId d,
                                              Step s) const {
  const auto lo = static_cast<std::ptrdiff_t>(run_offsets_[x]);
  const auto hi = static_cast<std::ptrdiff_t>(run_offsets_[x + 1]);
  const auto nb = run_nbr_.begin();
  const auto first = std::lower_bound(nb + lo, nb + hi, d);
  const auto last = std::upper_bound(first, nb + hi, d);
  const auto ss = run_start_.begin();
  const auto it = std::upper_bound(ss + (first - nb), ss + (last - nb), s);
  return static_cast<std::uint32_t>(it - (ss + (first - nb)));
}

std::uint32_t ContactHistoryIndex::node_count(NodeId x, Step s) const {
  const auto lo = static_cast<std::ptrdiff_t>(run_offsets_[x]);
  const auto hi = static_cast<std::ptrdiff_t>(run_offsets_[x + 1]);
  const auto it = std::upper_bound(start_times_.begin() + lo,
                                   start_times_.begin() + hi, s);
  return static_cast<std::uint32_t>(it - (start_times_.begin() + lo));
}

std::uint64_t ContactHistoryIndex::bytes() const {
  return run_offsets_.size() * sizeof(std::uint64_t) +
         run_nbr_.size() * sizeof(NodeId) +
         run_start_.size() * sizeof(Step) + run_end_.size() * sizeof(Step) +
         start_times_.size() * sizeof(Step);
}

std::shared_ptr<const ObservationSnapshot>
ContactHistoryForwarding::build_shared_snapshot(
    const graph::SpaceTimeGraph& graph,
    const trace::ContactTrace& /*trace*/) const {
  return std::make_shared<const ContactHistoryIndex>(graph);
}

void ContactHistoryForwarding::adopt_shared_snapshot(
    std::shared_ptr<const ObservationSnapshot> snapshot) {
  snapshot_ =
      std::dynamic_pointer_cast<const ContactHistoryIndex>(std::move(snapshot));
}

}  // namespace psn::forward
