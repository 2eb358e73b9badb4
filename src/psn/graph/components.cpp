#include "psn/graph/components.hpp"

#include <algorithm>
#include <stdexcept>

namespace psn::graph {

UnionFind::UnionFind(NodeId n) { reset(n); }

void UnionFind::reset(NodeId n) {
  parent_.resize(n);
  rank_.assign(n, 0);
  for (NodeId i = 0; i < n; ++i) parent_[i] = i;
}

NodeId UnionFind::find(NodeId x) noexcept {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(NodeId x, NodeId y) noexcept {
  NodeId rx = find(x);
  NodeId ry = find(y);
  if (rx == ry) return false;
  if (rank_[rx] < rank_[ry]) std::swap(rx, ry);
  parent_[ry] = rx;
  if (rank_[rx] == rank_[ry]) ++rank_[rx];
  return true;
}

std::vector<NodeId> components_at(const SpaceTimeGraph& graph, Step s) {
  ComponentScratch scratch;
  std::vector<NodeId> labels;
  components_at(graph, s, scratch, labels);
  return labels;
}

void components_at(const SpaceTimeGraph& graph, Step s,
                   ComponentScratch& scratch, std::vector<NodeId>& labels) {
  const NodeId n = graph.num_nodes();
  UnionFind& uf = scratch.uf;
  uf.reset(n);
  for (const StepEdge& e : graph.edges(s)) uf.unite(e.a, e.b);
  // Canonicalize: label = smallest node id in the component.
  labels.resize(n);
  scratch.smallest.assign(n, n);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId root = uf.find(v);
    scratch.smallest[root] = std::min(scratch.smallest[root], v);
  }
  for (NodeId v = 0; v < n; ++v) labels[v] = scratch.smallest[uf.find(v)];
}

namespace {

// Rebuilds scratch's step-local adjacency for step s (three passes over
// the edge list: degree count, prefix sum, fill). Because edges are
// (a, b)-sorted with a < b, node v's partners smaller than v (its b-side
// edges, ascending by a) are all appended before its partners larger
// than v (its a-side edges, ascending by b), so each list comes out fully
// ascending — exactly the order graph.neighbors(s, v) yields.
void rebuild_step_adjacency(std::span<const StepEdge> edges, NodeId n,
                            StepComponentScratch& scratch) {
  if (scratch.adj_stamp.size() < n) {
    scratch.adj_stamp.resize(n, 0);
    scratch.adj_begin.resize(n, 0);
    scratch.adj_end.resize(n, 0);
  }
  const std::uint64_t agen = ++scratch.adj_gen;
  scratch.adj_touched.clear();
  for (const StepEdge& e : edges) {
    for (const NodeId v : {e.a, e.b}) {
      if (scratch.adj_stamp[v] != agen) {
        scratch.adj_stamp[v] = agen;
        scratch.adj_begin[v] = 0;  // degree accumulator until the prefix.
        scratch.adj_touched.push_back(v);
      }
    }
    ++scratch.adj_begin[e.a];
    ++scratch.adj_begin[e.b];
  }
  std::uint32_t total = 0;
  for (const NodeId v : scratch.adj_touched) {
    const std::uint32_t deg = scratch.adj_begin[v];
    scratch.adj_begin[v] = total;
    scratch.adj_end[v] = total;  // fill cursor; ends at the list's end.
    total += deg;
  }
  if (scratch.adj_nbr.size() < total) scratch.adj_nbr.resize(total);
  for (const StepEdge& e : edges) {
    scratch.adj_nbr[scratch.adj_end[e.a]++] = e.b;
    scratch.adj_nbr[scratch.adj_end[e.b]++] = e.a;
  }
}

// Narrows an index array offset, refusing (rather than wrapping) past the
// 32-bit range the layout addresses.
std::uint32_t offset32(std::size_t v) {
  if (v > 0xFFFFFFFFu)
    throw std::length_error("StepComponents: index exceeds 2^32 entries");
  return static_cast<std::uint32_t>(v);
}

}  // namespace

std::size_t step_components_at(const SpaceTimeGraph& graph, Step s,
                               StepComponentScratch& scratch) {
  const NodeId n = graph.num_nodes();
  if (scratch.stamp.size() < n) scratch.stamp.resize(n, 0);
  const std::uint64_t gen = ++scratch.stamp_gen;
  const auto edges = graph.edges(s);
  rebuild_step_adjacency(edges, n, scratch);

  std::size_t k = 0;
  // Edges are (a, b)-sorted with a < b, so the first edge touching a
  // component has the component's smallest member as its `a`, and
  // first-edge discovery order is exactly ascending-smallest-member —
  // the canonical label order of components_at().
  for (const StepEdge& e : edges) {
    if (scratch.stamp[e.a] == gen) continue;  // component already built.
    if (k == scratch.pool.size()) {
      scratch.pool.emplace_back();
      scratch.pool.back().mask.ensure_capacity(n);
    }
    StepComponent& comp = scratch.pool[k];
    ++k;
    // Sparse reset: clear only the bits the component's previous tenant
    // set. Full-width clears would cost O(population / 64) per component
    // and dominate at megacity scale.
    for (const NodeId v : comp.members) comp.mask.reset(v);
    comp.members.clear();
    comp.mask.ensure_capacity(n);  // no-op once the pool slot is warm.

    comp.members.push_back(e.a);
    scratch.stamp[e.a] = gen;
    for (std::size_t head = 0; head < comp.members.size(); ++head) {
      const NodeId v = comp.members[head];
      comp.mask.set(v);
      for (const NodeId w : scratch.step_neighbors(v)) {
        if (scratch.stamp[w] != gen) {
          scratch.stamp[w] = gen;
          comp.members.push_back(w);
        }
      }
    }
  }
  return k;
}

StepComponents::StepComponents(const SpaceTimeGraph& graph) {
  // Every (step, node) contact pair is one member slot, and every edge
  // lists each endpoint as the other's neighbour once.
  std::size_t slots = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    slots += graph.contact_steps(v).size();
  clear(graph.num_nodes());
  step_begin_.reserve(graph.num_active_steps() + 1);
  members_.reserve(slots);
  nbr_begin_.reserve(slots + 1);
  nbr_.reserve(2 * graph.total_edges());
  StepComponentScratch scratch;
  for (const Step s : graph.active_steps()) append(graph, s, scratch);
  member_begin_.shrink_to_fit();  // the one array sized by growth.
}

void StepComponents::clear(NodeId n) {
  num_nodes_ = n;
  step_begin_.assign(1, 0);
  member_begin_.assign(1, 0);
  members_.clear();
  nbr_begin_.assign(1, 0);
  nbr_.clear();
}

void StepComponents::append(const SpaceTimeGraph& graph, Step s,
                            StepComponentScratch& scratch) {
  const NodeId n = graph.num_nodes();
  if (scratch.stamp.size() < n) scratch.stamp.resize(n, 0);
  if (scratch.position.size() < n) scratch.position.resize(n, 0);
  const std::uint64_t gen = ++scratch.stamp_gen;
  const auto edges = graph.edges(s);
  rebuild_step_adjacency(edges, n, scratch);

  // Components in canonical order (first-edge discovery, as in
  // step_components_at()); each BFS appends its members straight into
  // members_, which a sort then puts in ascending order.
  const std::size_t step_first = members_.size();
  for (const StepEdge& e : edges) {
    if (scratch.stamp[e.a] == gen) continue;  // component already built.
    const std::size_t first = members_.size();
    members_.push_back(e.a);
    scratch.stamp[e.a] = gen;
    for (std::size_t head = first; head < members_.size(); ++head) {
      for (const NodeId w : scratch.step_neighbors(members_[head])) {
        if (scratch.stamp[w] != gen) {
          scratch.stamp[w] = gen;
          members_.push_back(w);
        }
      }
    }
    const auto begin = members_.begin() + static_cast<std::ptrdiff_t>(first);
    std::sort(begin, members_.end());
    for (std::size_t i = first; i < members_.size(); ++i)
      scratch.position[members_[i]] = static_cast<std::uint32_t>(i - first);
    member_begin_.push_back(offset32(members_.size()));
  }
  // Neighbour positions: ascending node ids within a component map to
  // ascending positions, so each list keeps the adjacency's order.
  for (std::size_t i = step_first; i < members_.size(); ++i) {
    for (const NodeId w : scratch.step_neighbors(members_[i]))
      nbr_.push_back(scratch.position[w]);
    nbr_begin_.push_back(offset32(nbr_.size()));
  }
  step_begin_.push_back(offset32(member_begin_.size() - 1));
}

std::uint64_t StepComponents::bytes() const noexcept {
  return (step_begin_.capacity() + member_begin_.capacity() +
          nbr_begin_.capacity() + nbr_.capacity()) *
             sizeof(std::uint32_t) +
         members_.capacity() * sizeof(NodeId);
}

}  // namespace psn::graph
