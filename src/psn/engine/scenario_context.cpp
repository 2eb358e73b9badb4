#include "psn/engine/scenario_context.hpp"

#include <stdexcept>

#include "psn/trace/contact.hpp"

namespace psn::engine {

std::pair<ObservationStore::SnapshotPtr, bool> ObservationStore::get_or_build(
    const std::string& key, const std::function<SnapshotPtr()>& build) {
  std::shared_ptr<Slot> slot;
  {
    util::LockGuard lock(mu_);
    if (const auto it = published_.find(key); it != published_.end())
      return {it->second, false};
    auto& s = building_[key];
    if (!s) s = std::make_shared<Slot>();
    slot = s;
  }
  // Build outside the store lock: distinct keys proceed in parallel,
  // same-key callers serialize on the slot and all but one find it
  // published by the double check inside build_in_slot.
  util::LockGuard build_lock(slot->mu);
  return build_in_slot(key, *slot, build);
}

std::pair<ObservationStore::SnapshotPtr, bool> ObservationStore::build_in_slot(
    const std::string& key, Slot& slot,
    const std::function<SnapshotPtr()>& build) {
  (void)slot;  // held capability only; no data of its own.
  {
    util::LockGuard lock(mu_);
    if (const auto it = published_.find(key); it != published_.end())
      return {it->second, false};
  }
  SnapshotPtr snapshot = build();
  util::LockGuard lock(mu_);
  published_[key] = snapshot;
  building_.erase(key);  // stragglers re-find it via published_.
  return {snapshot, true};
}

std::uint64_t ObservationStore::bytes() const {
  util::LockGuard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, snapshot] : published_)
    if (snapshot) total += snapshot->bytes();
  return total;
}

ScenarioContextCache& ScenarioContextCache::instance() {
  static ScenarioContextCache cache;
  return cache;
}

std::uint64_t ScenarioContextCache::context_bytes(
    const ScenarioContext& context) noexcept {
  std::uint64_t bytes = 0;
  if (context.graph) bytes += context.graph->arena_bytes();
  if (context.dataset)
    bytes += context.dataset->trace.size() * sizeof(trace::Contact);
  if (context.observations) bytes += context.observations->bytes();
  return bytes;
}

void ScenarioContextCache::reaccount(const ScenarioContext& context) {
  util::LockGuard lock(mu_);
  const auto it = entries_.find({context.dataset.get(), context.delta});
  if (it == entries_.end()) return;
  Entry& entry = *it->second;
  if (!entry.retained || entry.retained.get() != &context) return;
  const std::uint64_t bytes = context_bytes(context);
  resident_bytes_ += bytes;
  resident_bytes_ -= entry.bytes;
  entry.bytes = bytes;
  if (resident_bytes_ > budget_bytes_) shrink_to_locked(budget_bytes_, &entry);
  // Shrinking spares the entry being re-accounted; if it alone has
  // outgrown the budget, release it — residency never exceeds the budget.
  if (resident_bytes_ > budget_bytes_) release_locked(entry);
}

std::shared_ptr<const ScenarioContext> ScenarioContextCache::acquire(
    const Scenario& scenario, const util::ParallelFor* /*unused*/) {
  if (!scenario.dataset)
    throw std::invalid_argument(
        "ScenarioContextCache::acquire: scenario without dataset");

  std::shared_ptr<Entry> entry;
  {
    util::LockGuard lock(mu_);
    // Opportunistic pruning keeps the map proportional to live contexts
    // instead of growing with every scenario ever seen. Only erase
    // entries nobody else holds and that retain nothing: an expired
    // entry with use_count > 1 is mid-build in another acquire() (which
    // published its copy under mu_, and no new copies can appear while
    // we hold mu_) — erasing it would let a third caller duplicate the
    // build.
    if (entries_.size() > 64) {
      std::erase_if(entries_, [](const auto& kv) {
        return kv.second.use_count() == 1 && !kv.second->retained &&
               kv.second->context_expired_unguarded();
      });
    }
    auto& slot = entries_[{scenario.dataset.get(), scenario.delta}];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }

  // Build (or find) outside the map lock: distinct scenarios proceed in
  // parallel; same-key callers serialize on the entry and all but one
  // find the context already present.
  util::LockGuard lock(entry->mu);
  return find_or_build_in_entry(scenario, *entry);
}

std::shared_ptr<const ScenarioContext>
ScenarioContextCache::find_or_build_in_entry(const Scenario& scenario,
                                             Entry& entry) {
  if (auto context = entry.context.lock()) {
    util::LockGuard stats_lock(mu_);
    ++hits_;
    entry.last_use = ++lru_tick_;
    // A context that outlived its eviction (a caller still held it) is
    // re-retained on the hit — it is hot again, and the budget sweep
    // below keeps residency bounded.
    if (!entry.retained && scenario.cache_retainable)
      retain_locked(entry, context);
    return context;
  }

  auto context = std::make_shared<ScenarioContext>();
  context->name = scenario.name;
  context->dataset = scenario.dataset;
  context->delta = scenario.delta;
  context->observations = std::make_shared<ObservationStore>();
  context->graph = std::make_shared<const graph::SpaceTimeGraph>(
      scenario.dataset->trace, scenario.delta);
  graphs_built_.fetch_add(1, std::memory_order_relaxed);
  entry.context = context;
  {
    util::LockGuard stats_lock(mu_);
    ++misses_;
    entry.last_use = ++lru_tick_;
    if (scenario.cache_retainable) retain_locked(entry, context);
  }
  return context;
}

void ScenarioContextCache::retain_locked(
    Entry& entry, const std::shared_ptr<const ScenarioContext>& context) {
  const std::uint64_t bytes = context_bytes(*context);
  // A context bigger than the whole budget is served to its caller but
  // never retained: retaining it would blow the bound, and evicting
  // everything else first would not help.
  if (bytes > budget_bytes_) return;
  // Make room *before* adding, excluding the entry being inserted, so
  // resident_bytes_ never exceeds the budget even transiently.
  if (resident_bytes_ + bytes > budget_bytes_)
    shrink_to_locked(budget_bytes_ - bytes, &entry);
  entry.retained = context;
  entry.bytes = bytes;
  resident_bytes_ += bytes;
}

void ScenarioContextCache::shrink_to_locked(std::uint64_t budget,
                                            const Entry* keep) {
  while (resident_bytes_ > budget) {
    Entry* victim = nullptr;
    for (auto& [key, entry] : entries_) {
      if (!entry->retained || entry.get() == keep) continue;
      if (victim == nullptr || entry->last_use < victim->last_use)
        victim = entry.get();
    }
    if (victim == nullptr) break;  // nothing evictable left.
    release_locked(*victim);
  }
}

void ScenarioContextCache::release_locked(Entry& entry) {
  resident_bytes_ -= entry.bytes;
  entry.bytes = 0;
  entry.retained.reset();
  ++evictions_;
}

ScenarioCacheStats ScenarioContextCache::stats() const {
  util::LockGuard lock(mu_);
  ScenarioCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.resident_bytes = resident_bytes_;
  s.budget_bytes = budget_bytes_;
  for (const auto& [key, entry] : entries_)
    if (entry->retained) ++s.resident_contexts;
  return s;
}

void ScenarioContextCache::set_budget_bytes(std::uint64_t budget) {
  util::LockGuard lock(mu_);
  budget_bytes_ = budget;
  shrink_to_locked(budget_bytes_, nullptr);
}

std::uint64_t ScenarioContextCache::budget_bytes() const {
  util::LockGuard lock(mu_);
  return budget_bytes_;
}

std::size_t ScenarioContextCache::evict(std::string_view name) {
  util::LockGuard lock(mu_);
  std::size_t released = 0;
  for (auto& [key, entry] : entries_) {
    if (entry->retained && entry->retained->name == name) {
      release_locked(*entry);
      ++released;
    }
  }
  return released;
}

void ScenarioContextCache::clear() {
  util::LockGuard lock(mu_);
  for (auto& [key, entry] : entries_)
    if (entry->retained) release_locked(*entry);
  // Keep entries a concurrent acquire() still holds (use_count > 1):
  // erasing one would detach its residency accounting from the map, and
  // the in-flight build would retain bytes no later eviction could find.
  std::erase_if(entries_,
                [](const auto& kv) { return kv.second.use_count() == 1; });
}

}  // namespace psn::engine
