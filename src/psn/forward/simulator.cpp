#include "psn/forward/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "psn/util/rng.hpp"

namespace psn::forward {

namespace {

using WorkEdge = detail::SimulatorState::WorkEdge;

bool work_less(const WorkEdge& l, const WorkEdge& r) {
  if (l.key != r.key) return l.key < r.key;
  if (l.a != r.a) return l.a < r.a;
  return l.b < r.b;
}

}  // namespace

void detail::sort_worklist(std::vector<WorkEdge>& work,
                           std::vector<WorkEdge>& scratch,
                           std::vector<std::size_t>& bucket_ends) {
  const std::size_t m = work.size();
  if (m < 2) return;
  const int bits = std::clamp(static_cast<int>(std::bit_width(m - 1)), 1, 16);
  const int shift = 64 - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  if (bucket_ends.size() < buckets + 1) bucket_ends.resize(buckets + 1);
  if (scratch.size() < m) scratch.resize(m);
  // Counting scatter: bucket_ends[i + 1] counts bucket i, the prefix sum
  // turns it into bucket i's start, and the scatter advances each start
  // to its bucket's end.
  std::fill_n(bucket_ends.begin(), buckets + 1, std::size_t{0});
  for (const WorkEdge& e : work) ++bucket_ends[(e.key >> shift) + 1];
  for (std::size_t i = 1; i <= buckets; ++i)
    bucket_ends[i] += bucket_ends[i - 1];
  for (const WorkEdge& e : work) scratch[bucket_ends[e.key >> shift]++] = e;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < buckets; ++i) {
    const std::size_t end = bucket_ends[i];
    if (end - begin > 1)
      std::sort(scratch.begin() + static_cast<std::ptrdiff_t>(begin),
                scratch.begin() + static_cast<std::ptrdiff_t>(end), work_less);
    begin = end;
  }
  std::copy_n(scratch.begin(), m, work.begin());
}

SimulationResult simulate(const SimulationRequest& request) {
  SimulatorWorkspace workspace;
  return simulate(request, workspace);
}

SimulationResult simulate(const SimulationRequest& request,
                          SimulatorWorkspace& workspace) {
  if (request.algorithm == nullptr || request.graph == nullptr ||
      request.trace == nullptr || request.messages == nullptr)
    throw std::invalid_argument("simulate: null field in SimulationRequest");

  ForwardingAlgorithm& algorithm = *request.algorithm;
  const graph::SpaceTimeGraph& graph = *request.graph;
  const std::vector<Message>& messages = *request.messages;
  const TrafficConfig& traffic = request.traffic;

  const NodeId n = graph.num_nodes();
  bool has_ttl = false;
  for (const Message& m : messages) {
    if (m.source >= n || m.destination >= n)
      throw std::invalid_argument("simulate: message endpoint out of range");
    if (m.source == m.destination)
      throw std::invalid_argument("simulate: source equals destination");
    if (m.size_bytes == 0)
      throw std::invalid_argument("simulate: message size must be >= 1 byte");
    if (std::isnan(m.ttl) || m.ttl < 0.0)
      throw std::invalid_argument("simulate: message ttl must be >= 0");
    if (m.ttl != kNoTtl) has_ttl = true;
  }
  // An adopted component index is read by step position and member id:
  // one built over another graph would index out of bounds.
  if (const graph::StepComponents* index = algorithm.step_components();
      index != nullptr && (index->num_steps() != graph.num_active_steps() ||
                           index->num_nodes() != n))
    throw std::invalid_argument(
        "simulate: adopted component index is from another graph");

  algorithm.prepare(graph, *request.trace);

  detail::SimulatorState& ws = workspace.internal_state();

  // Messages sorted by creation time for activation.
  auto& order = ws.order;
  order.resize(messages.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t lhs, std::uint32_t rhs) {
              return messages[lhs].created < messages[rhs].created;
            });
  std::size_t next_activation = 0;

  // Finite-TTL messages sorted by expiry time: an advancing cursor over
  // this list implements exact expiry without a priority queue. Ties
  // break by id so dense and sparse replay expire in identical order.
  auto& expiry_order = ws.expiry_order;
  expiry_order.clear();
  std::size_t next_expiry = 0;
  if (has_ttl) {
    for (std::uint32_t i = 0; i < messages.size(); ++i)
      if (messages[i].ttl != kNoTtl) expiry_order.push_back(i);
    std::sort(expiry_order.begin(), expiry_order.end(),
              [&](std::uint32_t lhs, std::uint32_t rhs) {
                const Seconds tl = messages[lhs].expiry_time();
                const Seconds tr = messages[rhs].expiry_time();
                if (tl != tr) return tl < tr;
                return lhs < rhs;
              });
  }

  SimulationResult result;
  result.outcomes.assign(messages.size(), {});
  SimulationEffort& effort = result.effort;

  // Workspace state is grown, never shrunk: slots beyond this run's needs
  // keep their capacity for a later, larger run. Only the flags are reset
  // here — holder sets / hop arrays are (re)initialized at activation.
  auto& state = ws.states;
  if (state.size() < messages.size()) state.resize(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    state[i].delivered = false;
    state[i].active = false;
    state[i].expired = false;
    state[i].dropped = false;
  }

  const bool capacity_limited = traffic.capacity_limited();
  const bool budget_limited = traffic.budget_limited();

  // The flooding fast path tracks only holder sets, which is incompatible
  // with byte-accounted buffers and budgets — constrained runs of a
  // flooding algorithm take the generic path, whose per-step work is
  // bounded by buffer capacity. TTL alone keeps the fast path: expiry
  // clears a message's holders before the step's contacts are processed.
  const bool flooding = algorithm.replicates() &&
                        algorithm.initial_copies() == 0 &&
                        traffic.unconstrained();
  auto& at_node = ws.at_node;
  if (at_node.size() < n) at_node.resize(n);
  for (NodeId v = 0; v < n; ++v) at_node[v].clear();
  auto& active_msgs = ws.active_msgs;  // ids of active, undelivered.
  active_msgs.clear();

  auto& store_bytes = ws.store_bytes;
  if (capacity_limited) {
    if (store_bytes.size() < n) store_bytes.resize(n);
    std::fill_n(store_bytes.begin(), n, std::uint64_t{0});
  }

  const std::uint32_t quota = algorithm.initial_copies();
  const bool quota_scheme = quota > 1;
  const bool observes = algorithm.observes_contacts();
  // The run's acquisition clock: every per-node list entry is stamped
  // with the next tick when it is appended (Held::stamp).
  std::uint64_t acquisitions = 0;

  // Holder-incident fast path: each active step's edges pass a holder
  // filter, and only holder-incident edges enter the relay worklist.
  // Requires sparse replay (the dense oracle scans everything by
  // definition), a non-flooding algorithm (floods have their own
  // kernels) and no online contact observation (observe_contact must see
  // every trace contact).
  const bool fast_scan =
      request.contact_scan == ContactScan::kHolderIncident &&
      request.replay == ReplayMode::kSparse && !flooding && !observes;

  // Delta passes (semi-naive evaluation, DESIGN §11): after a step's
  // first relay pass, a direction x→y offers only the entries x acquired
  // since it last ran. The budget check counts per offer, a buffer's
  // make_room evicts per transfer, and a drawing algorithm's stream moves
  // per call, so those runs keep full passes, as does the kFull oracle.
  const bool delta = request.contact_scan == ContactScan::kHolderIncident &&
                     !budget_limited && !capacity_limited &&
                     algorithm.pure_decisions();

  auto& holder_count = ws.holder_count;
  std::uint64_t holder_nodes = 0;  // nodes with holder_count > 0.
  if (fast_scan) {
    if (holder_count.size() < n) holder_count.resize(n);
    std::fill_n(holder_count.begin(), n, std::uint32_t{0});
    if (ws.node_stamp.size() < n) ws.node_stamp.resize(n, 0);
  }

  const auto deliver = [&](std::uint32_t id, graph::Step s,
                           std::uint32_t hops) {
    auto& st = state[id];
    st.delivered = true;
    auto& outcome = result.outcomes[id];
    outcome.delivered = true;
    outcome.delay = graph.step_end(s) - messages[id].created;
    outcome.hops = hops;
    ++result.transmissions;  // the final hop to the destination.
    // A delivered message is inert: every remaining copy stops counting
    // against its holder's buffer (the copies themselves are removed
    // lazily from the per-node lists).
    if (capacity_limited) {
      const std::uint64_t sz = messages[id].size_bytes;
      st.holders.for_each([&](std::uint32_t v) { store_bytes[v] -= sz; });
    }
    if (fast_scan)
      st.holders.for_each([&](std::uint32_t v) {
        if (--holder_count[v] == 0) --holder_nodes;
      });
  };

  // Expires every finite-TTL message whose expiry time has passed by
  // `threshold`. Called with the step start before each processed step, so
  // a TTL elapsing inside a skipped sparse-timeline gap takes effect
  // before the next active step's first contact — exactly when the dense
  // replay (which visits the gap as no-op steps) would apply it.
  const auto expire_until = [&](Seconds threshold) {
    while (next_expiry < expiry_order.size()) {
      const std::uint32_t id = expiry_order[next_expiry];
      if (messages[id].expiry_time() > threshold) break;
      ++next_expiry;
      auto& st = state[id];
      if (st.delivered || st.expired || st.dropped) continue;
      st.expired = true;
      result.outcomes[id].expired = true;
      ++result.expirations;
      if (st.active) {
        if (capacity_limited) {
          const std::uint64_t sz = messages[id].size_bytes;
          st.holders.for_each([&](std::uint32_t v) { store_bytes[v] -= sz; });
        }
        if (fast_scan)
          st.holders.for_each([&](std::uint32_t v) {
            if (--holder_count[v] == 0) --holder_nodes;
          });
        // Cleared holders make every remaining per-node list entry stale;
        // the relay and flood scans drop them lazily.
        st.holders.clear();
      }
    }
  };

  // Evicts resident copies at `node`, oldest first (earliest creation
  // time, then lowest message id), until `incoming` more bytes fit. Only
  // called when incoming <= capacity, so it always succeeds: the per-node
  // list holds every byte-accounted copy, and evicting all of them frees
  // the whole buffer. Evicting the last copy of a message drops the
  // message for good.
  const auto make_room = [&](NodeId node, std::uint64_t incoming) {
    const std::uint64_t capacity = traffic.buffer_capacity_bytes;
    if (store_bytes[node] + incoming <= capacity) return;
    auto& list = at_node[node];
    // Compact away stale entries (delivered / expired / moved away) so
    // the victim scan sees exactly the live residents.
    std::size_t k = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto& st = state[list[i].id];
      if (!st.delivered && !st.expired && st.holders.test(node))
        list[k++] = list[i];
    }
    list.resize(k);
    while (store_bytes[node] + incoming > capacity) {
      std::size_t victim = 0;
      for (std::size_t i = 1; i < list.size(); ++i) {
        const Message& cand = messages[list[i].id];
        const Message& best = messages[list[victim].id];
        if (cand.created < best.created ||
            (cand.created == best.created && cand.id < best.id))
          victim = i;
      }
      const std::uint32_t vid = list[victim].id;
      auto& vst = state[vid];
      vst.holders.reset(node);
      store_bytes[node] -= messages[vid].size_bytes;
      ++result.evictions;
      if (fast_scan && --holder_count[node] == 0) --holder_nodes;
      // Order-preserving removal: the live order of every per-node list
      // is the canonical insertion order in both scan modes, which keeps
      // algorithm callbacks subset-invariant.
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(victim));
      if (vst.holders.count() == 0) {
        vst.dropped = true;
        result.outcomes[vid].dropped = true;
        ++result.drops;
      }
    }
  };

  const bool index_kernel =
      request.flood_kernel == FloodKernel::kComponentIndex;

  // Scratch for the scalar oracle kernel's hop-level computation: a lazy
  // Dijkstra over one contact component with unit-weight edges and
  // holder-seeded start levels. `mark` is generation-stamped so a BFS
  // costs O(component), not O(n); the generation survives workspace reuse
  // (monotone, never reset), so a warm workspace needs no re-zeroing.
  auto& level = ws.level;
  auto& mark = ws.mark;
  if (flooding && !index_kernel && level.size() < n) {
    level.resize(n, 0);
    mark.resize(n, 0);
  }
  auto& buckets = ws.buckets;
  // Settles hop levels for the component `mask` at the step whose
  // components (and step-local adjacency) ws.components holds, seeded by the
  // message's holders at their current hop counts. If `stop_at` is inside
  // the component, returns as soon as its level is known; otherwise
  // settles the whole component (level[] is valid where mark[] ==
  // mark_gen). Hop counts are minimal over all holder-to-node chains
  // within the step, matching the zero-weight closure of §4.1. A bucket
  // queue (Dial's algorithm over unit-weight edges) replaces the earlier
  // binary heap: minimal levels are unique, so the values — the only
  // observable output — are unchanged while the log factor disappears.
  const auto settle_component =
      [&](const util::NodeSet& mask,
          const detail::SimulatorState::MessageState& st, NodeId stop_at,
          bool has_stop) -> std::uint32_t {
    const std::uint64_t gen = ++ws.mark_gen;
    std::uint32_t top = 0;  // highest bucket index in use.
    const std::uint32_t words = std::min(mask.num_words(),
                                         st.holders.num_words());
    for (std::uint32_t w = 0; w < words; ++w) {
      std::uint64_t bits = mask.word(w) & st.holders.word(w);
      while (bits != 0) {
        const auto v = static_cast<NodeId>(
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        const std::uint32_t lvl = st.hops[v];
        if (lvl >= buckets.size()) buckets.resize(lvl + 1);
        buckets[lvl].push_back(v);
        top = std::max(top, lvl);
      }
    }
    const auto drain = [&](std::uint32_t from) {
      for (std::uint32_t l = from; l <= top; ++l) buckets[l].clear();
    };
    for (std::uint32_t lvl = 0; lvl <= top; ++lvl) {
      // Indexed access throughout: pushing into buckets[lvl + 1] may
      // resize the outer vector, invalidating any held reference.
      for (std::size_t i = 0; i < buckets[lvl].size(); ++i) {
        const NodeId v = buckets[lvl][i];
        if (mark[v] == gen) continue;  // already settled at <= lvl.
        mark[v] = gen;
        level[v] = lvl;
        if (has_stop && v == stop_at) {
          drain(lvl);
          return lvl;
        }
        // ws.components holds step s's adjacency: flood_step() runs
        // step_components_at(s) before any settle. O(1) per lookup where
        // graph.neighbors(s, v) pays a timeline binary search.
        for (const NodeId w : ws.components.step_neighbors(v)) {
          if (mark[w] != gen) {
            if (lvl + 1 >= buckets.size()) buckets.resize(lvl + 2);
            buckets[lvl + 1].push_back(w);
            top = std::max(top, lvl + 1);
          }
        }
      }
      buckets[lvl].clear();
    }
    return 0;
  };

  // The component-index kernel's step source: the algorithm's adopted
  // whole-graph index (validated against the graph above), or null, in
  // which case each flood step is extracted into ws.step_index.
  const graph::StepComponents* const adopted_index =
      algorithm.step_components();
  constexpr std::uint32_t kUnsettled =
      std::numeric_limits<std::uint32_t>::max();
  auto& slot_level = ws.slot_level;
  auto& slot_queue = ws.slot_queue;

  // Component-index hop settle: a multi-source BFS over member
  // positions, so its scratch is sized by the component rather than the
  // population. Holders seed it at their hop counts relative to `base`
  // (their minimum in the component), which keeps the seed buckets short
  // however large absolute hop counts grow; a seed joins the FIFO queue
  // when the BFS reaches its level. Levels never decrease along the
  // queue, so a member's level is final when it is first reached, and it
  // is minimal over all holder-to-node chains within the step — the
  // scalar kernel's values. If `stop` is a position, returns its
  // absolute level as soon as it is reached; with kUnsettled, settles
  // every member, leaving slot_level[p] as member p's level relative to
  // `base`.
  const auto settle_index =
      [&](const graph::StepComponents::Component& comp,
          const detail::SimulatorState::MessageState& st, std::uint32_t base,
          std::uint32_t stop) -> std::uint32_t {
    const auto k = static_cast<std::uint32_t>(comp.members.size());
    if (slot_level.size() < k) {
      slot_level.resize(k);
      slot_queue.resize(k);  // each member is queued at most once.
    }
    std::uint32_t top = 0;  // highest seed bucket in use.
    for (std::uint32_t p = 0; p < k; ++p) {
      slot_level[p] = kUnsettled;
      const NodeId v = comp.members[p];
      if (!st.holders.test(v)) continue;
      const std::uint32_t rel = st.hops[v] - base;
      if (rel >= buckets.size()) buckets.resize(rel + 1);
      buckets[rel].push_back(p);
      top = std::max(top, rel);
    }
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    for (std::uint32_t lvl = 0; lvl <= top || head < tail; ++lvl) {
      if (lvl <= top) {
        for (const std::uint32_t p : buckets[lvl]) {
          if (slot_level[p] != kUnsettled) continue;  // reached at <= lvl.
          slot_level[p] = lvl;
          slot_queue[tail++] = p;
        }
        buckets[lvl].clear();
      }
      for (const std::uint32_t end = tail; head < end;) {
        for (const std::uint32_t q : comp.neighbors(slot_queue[head++])) {
          if (slot_level[q] != kUnsettled) continue;
          if (q == stop) {
            for (std::uint32_t l = lvl + 1; l <= top; ++l) buckets[l].clear();
            return base + lvl + 1;
          }
          slot_level[q] = lvl + 1;
          slot_queue[tail++] = q;
        }
      }
    }
    return 0;
  };

  // One flooding step: spread every live flood through the step's contact
  // components, in canonical order, and deliver where the destination is
  // reached. Components are read (or extracted) once per step and shared
  // by every message.
  const auto flood_step = [&](graph::Step s) {
    if (index_kernel) {
      const graph::StepComponents* index = adopted_index;
      std::size_t entry = 0;
      if (index != nullptr) {
        const auto active = graph.active_steps();
        entry = static_cast<std::size_t>(
            std::lower_bound(active.begin(), active.end(), s) -
            active.begin());
      } else {
        ws.step_index.clear(n);
        ws.step_index.append(graph, s, ws.components);
        index = &ws.step_index;
      }
      const auto [first, last] = index->step_range(entry);
      for (const std::uint32_t id : active_msgs) {
        auto& st = state[id];
        if (st.delivered || st.expired) continue;
        const NodeId dest = messages[id].destination;
        for (std::uint32_t c = first; c < last; ++c) {
          ++effort.flood_components;
          const graph::StepComponents::Component comp = index->component(c);
          const auto size = static_cast<unsigned>(comp.members.size());
          unsigned held = 0;
          std::uint32_t base = kUnsettled;  // lowest holder hop count.
          for (const NodeId v : comp.members) {
            if (!st.holders.test(v)) continue;
            ++held;
            base = std::min<std::uint32_t>(base, st.hops[v]);
          }
          if (held == 0) continue;
          const auto dest_it = std::lower_bound(comp.members.begin(),
                                                comp.members.end(), dest);
          if (dest_it != comp.members.end() && *dest_it == dest) {
            // Copies made inside the component before reaching the
            // destination are part of the flood's cost too.
            result.transmissions += size - held - 1;
            const std::uint32_t hops = settle_index(
                comp, st, base,
                static_cast<std::uint32_t>(dest_it - comp.members.begin()));
            deliver(id, s, hops);
            break;
          }
          // Fully flooded components have nothing left to spread; skipping
          // them also skips the (comparatively expensive) hop settle.
          if (held == size) continue;
          settle_index(comp, st, base, kUnsettled);
          for (std::uint32_t p = 0; p < size; ++p) {
            const NodeId v = comp.members[p];
            if (st.holders.test(v)) continue;
            st.hops[v] = base + slot_level[p];
            st.holders.set(v);
          }
          result.transmissions += size - held;
        }
      }
      return;
    }
    // Scalar oracle kernel: step_components_at() masks, full-width mask
    // scans and the Dial hop settle, independent of the component index.
    const std::size_t num_comps =
        graph::step_components_at(graph, s, ws.components);
    for (const std::uint32_t id : active_msgs) {
      auto& st = state[id];
      if (st.delivered || st.expired) continue;
      const NodeId dest = messages[id].destination;
      for (std::size_t ci = 0; ci < num_comps; ++ci) {
        ++effort.flood_components;
        const auto& mask = ws.components.pool[ci].mask;
        const unsigned held = st.holders.intersect_count(mask);
        if (held == 0) continue;
        if (mask.test(dest)) {
          // Copies made inside the component before reaching the
          // destination are part of the flood's cost too.
          result.transmissions += mask.count() - held - 1;
          deliver(id, s, settle_component(mask, st, dest, true));
          break;
        }
        const unsigned total = mask.count();
        // Fully flooded components have nothing left to spread; skipping
        // them also skips the (comparatively expensive) hop settle.
        if (held == total) continue;
        settle_component(mask, st, 0, false);
        mask.for_each([&](std::uint32_t v) {
          if (!st.holders.test(v)) st.hops[v] = level[v];
        });
        st.holders |= mask;
        result.transmissions += total - held;
      }
    }
  };

  // One step of the replay. Identical work in both modes; the mode only
  // selects which step ids this is invoked for.
  const auto process_step = [&](graph::Step s) {
    const auto step_edges = graph.edges(s);
    // A contact-free step is a complete no-op — expiry, activation, and
    // compaction all wait for the next step with edges. Holder state is
    // only ever read where contacts exist, so deferring is unobservable,
    // and it keeps the dense replay (which visits gap steps) bit-identical
    // to the sparse timeline (which skips them) by construction.
    if (step_edges.empty()) return;
    ++effort.active_steps;

    // Expiry first: a message is live during step s only if its TTL
    // outlasts the step's start.
    if (has_ttl) expire_until(static_cast<Seconds>(s) * graph.delta());

    // Activate messages created at or before this step. A message created
    // inside a contact-free gap activates at the first step with edges
    // after its creation. The source buffer must admit the message:
    // under bounded buffers activation can evict residents, and a message
    // larger than the whole buffer is stillborn.
    while (next_activation < order.size()) {
      const std::uint32_t id = order[next_activation];
      if (graph.step_of(messages[id].created) > s) break;
      ++next_activation;
      auto& st = state[id];
      if (st.expired) continue;  // TTL elapsed before the first contact.
      const Message& m = messages[id];
      if (capacity_limited) {
        if (m.size_bytes > traffic.buffer_capacity_bytes) {
          ++result.buffer_rejections;
          st.dropped = true;
          result.outcomes[id].dropped = true;
          ++result.drops;
          continue;
        }
        make_room(m.source, m.size_bytes);
        store_bytes[m.source] += m.size_bytes;
      }
      st.active = true;
      st.holders.clear();
      // Pre-size flood holder sets so the kernels' spreads never
      // reallocate mid-flood (capacity is invisible to results).
      if (flooding) st.holders.ensure_capacity(n);
      st.holders.set(m.source);
      st.hops.assign(n, 0);
      if (quota_scheme) {
        st.copies.assign(n, 0);
        st.copies[m.source] = quota;
      }
      if (!flooding) at_node[m.source].push_back({id, ++acquisitions});
      active_msgs.push_back(id);
      if (fast_scan && holder_count[m.source]++ == 0) ++holder_nodes;
    }

    // History observation, in deterministic trace order, consuming the
    // graph's precomputed new-contact flags (a pure graph property —
    // computing it per run was wasted work). Skipped outright for
    // algorithms that declare they keep no contact history.
    if (observes) {
      const auto new_flags = graph.new_edge_flags(s);
      for (std::size_t i = 0; i < step_edges.size(); ++i)
        algorithm.observe_contact(step_edges[i].a, step_edges[i].b, s,
                                  new_flags[i] != 0);
    }

    if (flooding) {
      // Epidemic closure: every member of a contact component ends the step
      // holding everything any member held; delivery happens if the
      // destination is in the component. Hop levels come from the
      // component settle so epidemic deliveries carry real hop counts
      // (Fig. 14-style statistics) instead of the historical 0.
      //
      // With no live (activated, undelivered, unexpired) flood, nothing
      // this step could change — skip the component BFS and the mask scan
      // outright. The flooding path draws no randomness, so the skip is
      // invisible.
      bool live = false;
      for (const std::uint32_t id : active_msgs) {
        if (!state[id].delivered && !state[id].expired) {
          live = true;
          break;
        }
      }
      if (live) flood_step(s);
    } else {
      // Generic path: relay across edges to a fixpoint so forwarding
      // chains can cross several contacts within one step. Edge order is
      // a stateless per-(seed, step) hash per edge instead of a shuffle:
      // any subset of a step's edges sorts into the same relative order
      // as inside the full list, which is what lets the holder-incident
      // worklist replay the full scan's decisions bit-exactly.
      auto& work = ws.work;
      work.clear();
      const std::uint64_t step_salt =
          request.seed ^
          (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(s) + 1));
      const auto key_of = [&](NodeId a, NodeId b) {
        std::uint64_t h =
            step_salt ^ ((static_cast<std::uint64_t>(a) << 32) | b);
        return util::splitmix64(h);
      };
      // When most nodes hold something the filtered scan saves nothing —
      // fall back to the complete edge list (same keys, same sort, so the
      // step's decisions are unchanged either way).
      const bool edges_complete =
          !fast_scan || 4 * holder_nodes >= static_cast<std::uint64_t>(n);
      if (fast_scan && edges_complete) ++effort.complete_steps;
      if (!edges_complete) effort.filter_edge_visits += step_edges.size();
      const std::uint64_t member_stamp = ++ws.stamp_gen;
      for (const graph::StepEdge& e : step_edges) {
        const NodeId a = std::min(e.a, e.b);
        const NodeId b = std::max(e.a, e.b);
        if (!edges_complete) {
          const bool ha = holder_count[a] > 0;
          const bool hb = holder_count[b] > 0;
          if (!ha && !hb) continue;
          // Holder endpoints are stamped: every edge incident to a
          // stamped node is in the worklist, which is the invariant the
          // mid-pass expansion below relies on.
          if (ha) ws.node_stamp[a] = member_stamp;
          if (hb) ws.node_stamp[b] = member_stamp;
        }
        work.push_back({key_of(a, b), a, b, traffic.contact_budget_bytes});
      }
      effort.worklist_edges += work.size();
      detail::sort_worklist(work, ws.work_scratch, ws.bucket_ends);

      const std::uint64_t step_clock = acquisitions;
      auto& acquirers = ws.acquirers;
      auto& visits = ws.visits;
      acquirers.clear();

      // Offers x's entries from `first` on to y across work[ei]. Returns
      // whether anything changed; `acquired` says whether y took a copy.
      const auto relay = [&](NodeId x, NodeId y, std::size_t ei,
                             std::size_t first, bool& acquired) -> bool {
        ++effort.relay_calls;
        bool changed = false;
        auto& list = at_node[x];
        std::size_t k = first;  // order-preserving compaction write cursor.
        for (std::size_t i = first; i < list.size(); ++i) {
          const std::uint32_t id = list[i].id;
          auto& st = state[id];
          // Lazily drop stale entries (delivered, expired, evicted, or
          // moved away).
          if (st.delivered || st.expired || !st.holders.test(x)) continue;
          const NodeId dest = messages[id].destination;
          const std::uint64_t sz = messages[id].size_bytes;
          if (y == dest) {
            // The final hop consumes contact budget like any transfer;
            // a blocked delivery stays queued for a later contact.
            if (budget_limited && work[ei].budget < sz) {
              ++result.budget_blocked;
              list[k++] = list[i];
              continue;
            }
            if (budget_limited) work[ei].budget -= sz;
            deliver(id, s, st.hops[x] + 1);
            changed = true;
            continue;
          }
          const auto decide = [&] {
            ++effort.decisions;
            return algorithm.should_forward(x, y, dest, s,
                                            quota_scheme ? st.copies[x] : 1);
          };
          if (!st.holders.test(y) && decide()) {
            // Quota schemes only hand over copies while budget remains;
            // the budget check runs after that gate so budget_blocked
            // counts only transfers that would actually happen. (A message
            // larger than the buffer every node has was dropped at
            // activation, so none held here can overflow y's whole buffer.)
            bool admitted = !quota_scheme || st.copies[x] > 1;
            if (admitted && budget_limited && work[ei].budget < sz) {
              ++result.budget_blocked;
              admitted = false;
            }
            if (admitted) {
              if (capacity_limited) {
                make_room(y, sz);
                store_bytes[y] += sz;
              }
              if (budget_limited) work[ei].budget -= sz;
              if (fast_scan && holder_count[y]++ == 0) ++holder_nodes;
              st.holders.set(y);
              st.hops[y] = st.hops[x] + 1;
              at_node[y].push_back({id, ++acquisitions});
              ++result.transmissions;
              ++effort.transfers;
              changed = acquired = true;
              if (quota_scheme) {
                // Binary spray: hand over half the remaining budget; the
                // holder keeps a copy while it has budget.
                const std::uint32_t give = st.copies[x] / 2;
                st.copies[x] -= give;
                st.copies[y] = give;
              } else if (!algorithm.replicates()) {
                if (capacity_limited)
                  store_bytes[x] -= sz;  // the single copy moves away.
                st.holders.reset(x);
                if (fast_scan && --holder_count[x] == 0) --holder_nodes;
                continue;  // the single copy moved away: drop from x.
              }
            }
          }
          list[k++] = list[i];
        }
        list.resize(k);
        return changed;
      };

      const auto edge_of = [&](NodeId y, NodeId z) {
        const NodeId a = std::min(y, z);
        const NodeId b = std::max(y, z);
        return WorkEdge{key_of(a, b), a, b, traffic.contact_budget_bytes};
      };

      // Splices a freshly-minted holder's incident edges into the sorted
      // worklist (fast scan only). Edges whose other endpoint is stamped
      // are already present; a splice position at or before the caller's
      // cursor lands the edge in the next pass — exactly where the full
      // scan, which passed over it as a no-op before y held anything,
      // would first act on it. Returns the caller's adjusted cursor.
      const auto expand_holder = [&](NodeId y, std::size_t ei) {
        if (edges_complete || ws.node_stamp[y] == member_stamp) return ei;
        for (const NodeId z : graph.neighbors(s, y)) {
          if (ws.node_stamp[z] == member_stamp) continue;
          const WorkEdge we = edge_of(y, z);
          const auto it =
              std::lower_bound(work.begin(), work.end(), we, work_less);
          const auto pos = static_cast<std::size_t>(it - work.begin());
          work.insert(it, we);
          ++effort.spliced_edges;
          if (pos <= ei) ++ei;
        }
        ws.node_stamp[y] = member_stamp;
        return ei;
      };

      // The visit heap's order: the edge first in worklist order on top.
      const auto later = [](const WorkEdge& l, const WorkEdge& r) {
        return work_less(r, l);
      };

      // Relays direction `dir` of work[ei] (0: a→b, 1: b→a). In a delta
      // pass (`delta_pass`) only the sender's entries newer than the
      // direction's last run are offered, and the acquirer's edges that
      // sort after this one join the pass, where a full pass would reach
      // them. Returns the entry's index, shifted by any splice.
      const auto relay_direction = [&](std::size_t ei, int dir,
                                       bool delta_pass, bool& changed) {
        const NodeId x = dir == 0 ? work[ei].a : work[ei].b;
        const NodeId y = dir == 0 ? work[ei].b : work[ei].a;
        const auto& list = at_node[x];
        if (list.empty()) return ei;  // most endpoints hold nothing.
        std::size_t first = 0;
        if (delta) {
          std::uint32_t& ran = work[ei].ran[dir];
          if (delta_pass) {
            const std::uint64_t seen = step_clock + ran;
            if (list.back().stamp <= seen) return ei;
            first = list.size() - 1;
            while (first > 0 && list[first - 1].stamp > seen) --first;
          }
          ran = static_cast<std::uint32_t>(std::min<std::uint64_t>(
              acquisitions - step_clock,
              std::numeric_limits<std::uint32_t>::max()));
        }
        const std::uint32_t before = fast_scan ? holder_count[y] : 1u;
        bool acquired = false;
        if (relay(x, y, ei, first, acquired)) changed = true;
        if (fast_scan && before == 0 && holder_count[y] > 0)
          ei = expand_holder(y, ei);
        if (delta && acquired) {
          acquirers.push_back(y);
          if (delta_pass)
            for (const NodeId z : graph.neighbors(s, y)) {
              const WorkEdge e = edge_of(y, z);
              if (!work_less(work[ei], e)) continue;
              visits.push_back(e);
              std::push_heap(visits.begin(), visits.end(), later);
            }
        }
        return ei;
      };

      bool converged = false;
      for (std::uint32_t pass = 0; pass < request.max_relay_passes; ++pass) {
        ++effort.relay_passes;
        bool changed = false;
        if (pass == 0 || !delta) {
          // Re-read endpoints after each relay: a splice may shift the
          // current entry.
          for (std::size_t ei = 0; ei < work.size(); ++ei) {
            ei = relay_direction(ei, 0, false, changed);
            ei = relay_direction(ei, 1, false, changed);
          }
        } else {
          // A delta pass visits, in worklist order, the edges of the
          // nodes that acquired something in the previous pass.
          std::sort(acquirers.begin(), acquirers.end());
          acquirers.erase(std::unique(acquirers.begin(), acquirers.end()),
                          acquirers.end());
          visits.clear();
          for (const NodeId y : acquirers)
            for (const NodeId z : graph.neighbors(s, y))
              visits.push_back(edge_of(y, z));
          acquirers.clear();
          std::make_heap(visits.begin(), visits.end(), later);
          std::size_t lo = 0;  // visits come in worklist order.
          while (!visits.empty()) {
            std::pop_heap(visits.begin(), visits.end(), later);
            const WorkEdge e = visits.back();
            visits.pop_back();
            if (lo > 0 && !work_less(work[lo - 1], e)) continue;  // repeat.
            const auto from = work.begin() + static_cast<std::ptrdiff_t>(lo);
            auto ei = static_cast<std::size_t>(
                std::lower_bound(from, work.end(), e, work_less) -
                work.begin());
            ei = relay_direction(ei, 0, true, changed);
            ei = relay_direction(ei, 1, true, changed);
            lo = ei + 1;
          }
        }
        if (!changed) {
          converged = true;
          break;
        }
      }
      // Surface truncation instead of silently cutting forwarding chains.
      if (!converged) ++result.truncated_relay_steps;
    }

    // Compact the active list occasionally.
    if ((s & 63) == 0) {
      std::erase_if(active_msgs, [&](std::uint32_t id) {
        return state[id].delivered || state[id].expired || state[id].dropped;
      });
    }
  };

  if (request.replay == ReplayMode::kDense) {
    for (graph::Step s = 0; s < graph.num_steps(); ++s) process_step(s);
  } else {
    // Sparse event timeline: only steps carrying contact edges are
    // visited. Messages created after the last contact simply never
    // activate — nothing could happen to them anyway.
    for (const graph::Step s : graph.active_steps()) process_step(s);
  }

  // Expiry sweep over the rest of the trace window: a TTL elapsing after
  // the last contact still expires (identically in both replay modes —
  // the dense mode's trailing gap steps are no-ops too). TTLs outlasting
  // the window leave the message undelivered-but-unexpired: still in
  // flight when the trace ends.
  if (has_ttl && graph.num_steps() > 0)
    expire_until(graph.step_end(graph.num_steps() - 1));

  return result;
}

}  // namespace psn::forward
