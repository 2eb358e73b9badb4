#include "psn/engine/scenario_registry.hpp"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "psn/core/dataset.hpp"
#include "psn/synth/conference.hpp"
#include "psn/synth/metropolis.hpp"
#include "psn/util/parallel.hpp"
#include "psn/util/thread_annotations.hpp"

namespace psn::engine {

namespace {

std::atomic<std::uint64_t> datasets_built{0};

/// Name-keyed memoization of the registry's datasets. Weak entries: a
/// dataset is shared among every scenario (and every ScenarioContext)
/// holding it and is regenerated only after all holders release it, so
/// repeated make_scenario_by_name calls inside one driver — e.g. the
/// dense-vs-sparse event-timeline bench building city_2048 twice — pay
/// for one generation. Builds are deterministic (fixed per-family
/// seeds), so sharing is indistinguishable from rebuilding.
std::shared_ptr<const core::Dataset> cached_dataset(
    const std::string& name,
    const std::function<core::Dataset()>& build) {
  struct DatasetCache {
    util::Mutex mu;
    std::map<std::string, std::weak_ptr<const core::Dataset>> entries
        PSN_GUARDED_BY(mu);
  };
  static DatasetCache cache;
  util::LockGuard lock(cache.mu);
  if (const auto it = cache.entries.find(name); it != cache.entries.end())
    if (auto dataset = it->second.lock()) return dataset;
  auto dataset = std::make_shared<const core::Dataset>(build());
  datasets_built.fetch_add(1, std::memory_order_relaxed);
  cache.entries[name] = dataset;
  return dataset;
}

Scenario shared_dataset_scenario(const std::string& name,
                                 const std::function<core::Dataset()>& build,
                                 trace::Seconds delta = 10.0) {
  Scenario scenario;
  scenario.name = name;
  scenario.dataset = cached_dataset(name, build);
  scenario.delta = delta;
  return scenario;
}

// The diurnal variant's modulation: the session/break cadence interleaved
// with quiet half-hours (factor 0 — thinning rejects everything), modeling
// a district where activity comes in waves with dead time between them.
// Existing tiers are contact-dense enough that nearly every 10 s step
// carries an edge, so the sparse event timeline's gap skipping was only
// ever exercised at toy scale; this tier makes a third of the window
// contact-free at city scale.
std::vector<synth::ModulationSegment> diurnal_modulation(
    trace::Seconds t_max) {
  std::vector<synth::ModulationSegment> segs;
  trace::Seconds t = 0.0;
  while (t < t_max) {
    const trace::Seconds active_end = std::min(t + 40.0 * 60.0, t_max);
    segs.push_back({t, active_end, 1.0});
    t = active_end;
    if (t >= t_max) break;
    const trace::Seconds quiet_end = std::min(t + 20.0 * 60.0, t_max);
    segs.push_back({t, quiet_end, 0.0});
    t = quiet_end;
  }
  return segs;
}

// One scale tier's config: a conference-style population at the given
// size over a 3-hour window with 120 s scans, under the paper windows'
// session/break modulation unless `modulation` is given. The mean
// per-node contact rate tapers with population so that instantaneous
// contact-graph density (and hence per-step component sizes) stays in the
// Bluetooth-sighting regime rather than approaching a clique.
//
// Scale tiers use exponential inter-contact gaps rather than the paper
// windows' Pareto gaps: the Pareto draw has a hard minimum gap of
// (alpha-1)/(alpha*lambda), and at 512+ nodes the per-pair rates are so
// small that this minimum exceeds the 3-hour window — most pairs would
// never meet at all and the population would fragment into isolated
// nodes. Exponential gaps keep the realized contact volume proportional
// to the configured rate at every N (DESIGN.md §3), and they are what the
// metropolis generator's superposition needs.
synth::ConferenceConfig tier_config(
    trace::NodeId mobile, trace::NodeId stationary, double mean_node_rate,
    std::uint64_t seed, std::vector<synth::ModulationSegment> modulation = {}) {
  synth::ConferenceConfig config;
  config.mobile_nodes = mobile;
  config.stationary_nodes = stationary;
  config.t_max = 3.0 * 3600.0;
  config.mean_node_rate = mean_node_rate;
  config.scan_interval = 120.0;
  config.gaps = synth::GapModel::exponential;
  config.modulation = modulation.empty()
                          ? synth::default_conference_modulation(config.t_max)
                          : std::move(modulation);
  config.seed = seed;
  return config;
}

// A tier of the pairwise conference generator (up to city_2048).
Scenario conference_tier(const char* name, synth::ConferenceConfig config) {
  return shared_dataset_scenario(name, [name, &config] {
    return core::make_dataset(name, synth::generate_conference(config));
  });
}

// A metropolis-generator tier (metro_16k and up): the same trace family
// as the conference tiers, generated in O(#contacts) by Poisson
// superposition (synth/metropolis.hpp) — the pairwise conference
// generator would visit 2.1 billion pairs at 65k nodes. Sharded over
// `parallel`; the trace is a function of the config alone, so every
// executor generates it identically.
Scenario metropolis_tier(const char* name, synth::ConferenceConfig config,
                         const util::ParallelFor& parallel) {
  return shared_dataset_scenario(name, [name, &config, &parallel] {
    return core::make_dataset(name,
                              synth::generate_metropolis(config, parallel));
  });
}

}  // namespace

std::vector<std::string> scenario_names() {
  return {"conference_small", "random_waypoint", "town_128",
          "campus_512",      "city_2048",       "city_2048_diurnal",
          "metro_16k",       "megacity_65k"};
}

std::uint64_t scenario_datasets_built() noexcept {
  return datasets_built.load(std::memory_order_relaxed);
}

Scenario make_scenario_by_name(std::string_view name) {
  return make_scenario_by_name(name, util::serial_parallel_for());
}

Scenario make_scenario_by_name(std::string_view name,
                               const util::ParallelFor& parallel) {
  if (name == "conference_small")
    return shared_dataset_scenario(
        "conference_small", [] { return core::DatasetFactory::paper_dataset(0); });
  if (name == "random_waypoint")
    return shared_dataset_scenario("random_waypoint", [] {
      return core::DatasetFactory::random_waypoint_dataset();
    });
  if (name == "town_128")
    return conference_tier("town_128", tier_config(108, 20, 0.020, 0x128));
  if (name == "campus_512")
    return conference_tier("campus_512", tier_config(480, 32, 0.016, 0x512));
  if (name == "city_2048")
    return conference_tier("city_2048",
                           tier_config(2000, 48, 0.012, 0x2048));
  if (name == "city_2048_diurnal")
    return conference_tier("city_2048_diurnal",
                           tier_config(2000, 48, 0.012, 0x2049,
                                       diurnal_modulation(3.0 * 3600.0)));
  // metro_16k runs at 0.012 (not the taper's 0.008): at 0.008 a node meets
  // ~0.5% of the population over the window, the freshness gradient never
  // forms, and FRESH delivers exactly nothing (the 0%-success pathology
  // the node-scaling bench recorded). 0.012 matches city_2048's per-node
  // contact volume, where FRESH still functions, while the contact graph
  // stays Bluetooth-sighting sparse (~9 contacts/pair-million).
  if (name == "metro_16k")
    return metropolis_tier("metro_16k",
                           tier_config(16000, 384, 0.012, 0x16000), parallel);
  if (name == "megacity_65k")
    return metropolis_tier("megacity_65k",
                           tier_config(64600, 936, 0.005, 0x65000), parallel);
  // Unknown names list the registry so a typo'd sweep config is
  // self-diagnosing instead of opaque.
  std::string message = "make_scenario_by_name: unknown scenario '" +
                        std::string(name) + "'; registered scenarios:";
  for (const std::string& known : scenario_names())
    message += " " + known;
  throw std::invalid_argument(message);
}

}  // namespace psn::engine
