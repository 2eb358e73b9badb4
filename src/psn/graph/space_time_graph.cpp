#include "psn/graph/space_time_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace psn::graph {

namespace {

// The step interval [first, last] a contact is active in. A zero-length
// contact still occupies the step containing its start; a contact that
// ends exactly on a step boundary is not active in the following step.
std::pair<Step, Step> span_of(const trace::Contact& c, Seconds delta,
                              Step steps) noexcept {
  auto first = static_cast<Step>(std::floor(c.start / delta));
  const Seconds effective_end = std::max(c.end, c.start);
  auto last = static_cast<Step>(std::floor(effective_end / delta));
  if (effective_end > c.start &&
      std::floor(effective_end / delta) * delta == effective_end)
    last = last == 0 ? 0 : last - 1;
  first = std::min<Step>(first, steps - 1);
  last = std::min<Step>(last, steps - 1);
  return {first, last};
}

// One contact's step span, keyed by its pair.
struct Span {
  NodeId a;
  NodeId b;
  Step first;
  Step last;
};

// Stable counting sort of `in` into `out` by key(span), a node id below n.
template <class Key>
void sort_by_node(const std::vector<Span>& in, std::vector<Span>& out,
                  NodeId n, Key key) {
  std::vector<std::size_t> at(n + std::size_t{1}, 0);
  for (const Span& sp : in) ++at[key(sp) + 1];
  for (NodeId v = 0; v < n; ++v) at[v + 1] += at[v];
  out.resize(in.size());
  for (const Span& sp : in) out[at[key(sp)]++] = sp;
}

// Walks (a, b, first)-ordered spans and calls emit(span, begin, fresh)
// with the part [begin, span.last] of each span that no earlier span of
// its pair covered (skipping spans with none), so every (step, pair) is
// emitted exactly once, pairs in (a, b) order. `fresh` is true iff
// step begin - 1 is not covered by the pair — the flat form of
// `s == 0 || !in_contact(s - 1, a, b)`; the later steps of a part are
// never fresh, since the part itself covers their predecessors.
template <class Emit>
void for_each_new_part(const std::vector<Span>& spans, Emit&& emit) {
  Step next = 0;  // the first step the current pair has not emitted.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (i > 0 && (sp.a != spans[i - 1].a || sp.b != spans[i - 1].b))
      next = 0;
    const Step begin = std::max(sp.first, next);
    if (begin > sp.last) continue;
    emit(sp, begin, begin == 0 || begin != next);
    next = sp.last + 1;
  }
}

}  // namespace

SpaceTimeGraph::SpaceTimeGraph(const trace::ContactTrace& trace,
                               Seconds delta)
    : num_nodes_(trace.num_nodes()), delta_(delta) {
  if (!(delta > 0.0) || !std::isfinite(delta))
    throw std::invalid_argument(
        "SpaceTimeGraph: delta must be positive and finite");
  const Seconds steps = std::max(1.0, std::ceil(trace.t_max() / delta));
  if (!(steps <= static_cast<Seconds>(std::numeric_limits<Step>::max())))
    throw std::length_error("SpaceTimeGraph: more than 2^32 - 1 steps");
  num_steps_ = static_cast<Step>(steps);
  build_edges(trace);
  build_adjacency();
}

void SpaceTimeGraph::build_edges(const trace::ContactTrace& trace) {
  const Step steps = num_steps_;

  // The contacts' spans in (a, b, first) order: the trace is in start
  // order, so stable counting sorts by b and then by a suffice.
  std::vector<Span> spans;
  {
    std::vector<Span> in_trace_order;
    in_trace_order.reserve(trace.size());
    for (const trace::Contact& c : trace.contacts()) {
      const auto [first, last] = span_of(c, delta_, steps);
      in_trace_order.push_back({c.a, c.b, first, last});
    }
    std::vector<Span> by_b;
    sort_by_node(in_trace_order, by_b, num_nodes_,
                 [](const Span& sp) { return sp.b; });
    in_trace_order = {};
    sort_by_node(by_b, spans, num_nodes_, [](const Span& sp) { return sp.a; });
  }

  // Per-step edge counts as a difference array over the parts (unsigned
  // wrap-around cancels in the running sum), then the offsets.
  edge_offsets_.assign(steps + std::size_t{1}, 0);
  for_each_new_part(spans, [this](const Span& sp, Step begin, bool) {
    ++edge_offsets_[begin];
    --edge_offsets_[sp.last + std::size_t{1}];
  });
  std::size_t covering = 0;
  std::size_t total = 0;
  for (Step s = 0; s < steps; ++s) {
    covering += edge_offsets_[s];
    edge_offsets_[s] = total;
    total += covering;
    // The adjacency addresses a step's 2 * edges entries in 32 bits.
    if (2 * covering > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error(
          "SpaceTimeGraph: more than 2^31 contact edges in one step");
    if (covering > 0) active_steps_.push_back(s);
  }
  edge_offsets_[steps] = total;
  active_steps_.shrink_to_fit();

  // Scatter: pairs arrive in (a, b) order, so each step's edges land
  // sorted, deduplicated and flagged at their final slots.
  edges_.resize(total);
  new_edge_.resize(total);
  std::vector<std::size_t> cursor(edge_offsets_.begin(),
                                  edge_offsets_.end() - 1);
  for_each_new_part(spans, [&](const Span& sp, Step begin, bool fresh) {
    auto flag = static_cast<std::uint8_t>(fresh);
    for (Step s = begin; s <= sp.last; ++s) {
      const std::size_t at = cursor[s]++;
      edges_[at] = {sp.a, sp.b};
      new_edge_[at] = flag;
      flag = 0;
    }
  });
}

void SpaceTimeGraph::build_adjacency() {
  constexpr std::size_t kMaxOffset = 0xFFFFFFFFu;
  const NodeId n = num_nodes_;

  // Per-node group counts (one group per step a node has contacts in),
  // and a bound on the stream's three-word escapes: only a neighbour id
  // >= 0xFFFF escapes as a first value or a gap, and only a count of
  // >= 0xFFFF neighbours as a count.
  node_offsets_.assign(n + std::size_t{1}, 0);
  std::size_t escapes = 2 * edges_.size() / 0xFFFFu;
  {
    std::vector<Step> seen(n, std::numeric_limits<Step>::max());
    for (const Step s : active_steps_) {
      for (const StepEdge& e : edges(s)) {
        for (const NodeId v : {e.a, e.b}) {
          if (seen[v] != s) {
            seen[v] = s;
            ++node_offsets_[v + 1];
          }
        }
        escapes += (e.a >= 0xFFFFu ? 1u : 0u) + (e.b >= 0xFFFFu ? 1u : 0u);
      }
    }
  }
  std::size_t groups = 0;
  for (NodeId v = 0; v < n; ++v) {
    groups += node_offsets_[v + 1];
    if (groups > kMaxOffset)
      throw std::length_error(
          "SpaceTimeGraph: adjacency stream exceeds 32-bit addressing");
    node_offsets_[v + 1] = static_cast<std::uint32_t>(groups);
  }
  node_steps_.resize(groups);
  node_adj_begin_.resize(groups);
  adj_data_.reserve(groups + 2 * edges_.size() + 2 * escapes);

  const auto append = [this](std::uint32_t v) {
    if (v < 0xFFFFu) {
      adj_data_.push_back(static_cast<std::uint16_t>(v));
    } else {
      adj_data_.push_back(0xFFFFu);
      adj_data_.push_back(static_cast<std::uint16_t>(v & 0xFFFFu));
      adj_data_.push_back(static_cast<std::uint16_t>(v >> 16));
    }
  };

  // Per active step: degree count -> prefix sum -> fill. Edges are
  // (a, b)-sorted with a < b, so node v's partners below v (edges (u, v),
  // ascending u) fill in before its partners above v (edges (v, w),
  // ascending w): every list comes out ascending with no sort. The
  // prefix sum runs in ascending node order, read off a presence bitmap,
  // so the groups also encode node-ascending, each appended straight to
  // its node's timeline (steps ascend, so timelines stay sorted).
  std::vector<std::uint32_t> next_group(node_offsets_.begin(),
                                        node_offsets_.end() - 1);
  std::vector<std::uint32_t> degree(n, 0);
  std::vector<std::uint32_t> fill(n);
  std::vector<std::uint64_t> present((n + std::size_t{63}) / 64, 0);
  std::vector<NodeId> order;  // the step's nodes, ascending.
  std::vector<NodeId> lists;  // their neighbour lists, back to back.
  for (const Step s : active_steps_) {
    const auto es = edges(s);
    NodeId top = 0;
    for (const StepEdge& e : es) {
      ++degree[e.a];
      ++degree[e.b];
      present[e.a / 64] |= std::uint64_t{1} << (e.a % 64);
      present[e.b / 64] |= std::uint64_t{1} << (e.b % 64);
      top = std::max(top, e.b);
    }
    order.clear();
    std::uint32_t total = 0;
    for (std::size_t w = es.front().a / 64; w <= top / 64; ++w) {
      for (std::uint64_t bits = present[w]; bits != 0; bits &= bits - 1) {
        const auto v = static_cast<NodeId>(
            64 * w + static_cast<unsigned>(std::countr_zero(bits)));
        order.push_back(v);
        fill[v] = total;
        total += degree[v];
      }
      present[w] = 0;
    }
    lists.resize(total);
    for (const StepEdge& e : es) {
      lists[fill[e.a]++] = e.b;
      lists[fill[e.b]++] = e.a;
    }
    const NodeId* list = lists.data();
    for (const NodeId v : order) {
      if (adj_data_.size() > kMaxOffset)
        throw std::length_error(
            "SpaceTimeGraph: adjacency stream exceeds 32-bit addressing");
      const std::uint32_t g = next_group[v]++;
      node_steps_[g] = s;
      node_adj_begin_[g] = static_cast<std::uint32_t>(adj_data_.size());
      const std::uint32_t count = degree[v];
      degree[v] = 0;
      append(count);
      append(list[0]);  // first neighbor, absolute
      for (std::uint32_t k = 1; k < count; ++k)
        append(list[k] - list[k - 1] - 1);  // gap - 1: adjacent ids cost 0
      list += count;
    }
  }
}

Step SpaceTimeGraph::step_of(Seconds t) const noexcept {
  // NaN and t <= 0 land in step 0; the clamp comes before the cast, which
  // a time far past the window would overflow.
  if (!(t > 0.0)) return 0;
  const Seconds s = std::floor(t / delta_);
  const Step last = num_steps_ - 1;
  return s < static_cast<Seconds>(last) ? static_cast<Step>(s) : last;
}

Step SpaceTimeGraph::next_active_step(Step s) const noexcept {
  const auto it =
      std::lower_bound(active_steps_.begin(), active_steps_.end(), s);
  return it == active_steps_.end() ? num_steps_ : *it;
}

bool SpaceTimeGraph::in_contact(Step s, NodeId a, NodeId b) const noexcept {
  // Neighbor lists decode in ascending order, so a linear scan with
  // early exit beats binary search on the delta stream (no random
  // access) and typical contact degrees are tiny.
  for (const NodeId w : neighbors(s, a)) {
    if (w == b) return true;
    if (w > b) return false;
  }
  return false;
}

}  // namespace psn::graph
