#include "psn/serve/request.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "psn/engine/model_sweep.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/forward/algorithm_registry.hpp"
#include "psn/forward/message.hpp"

namespace psn::serve {

namespace {

[[noreturn]] void fail(const std::string& what) { throw RequestError(what); }

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Rejects unknown keys so a typoed field name ("algorithm") errors
/// instead of silently falling back to its default.
void check_keys(const Json& json,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : json.as_object()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end())
      fail("unknown field '" + key + "'");
  }
}

std::string get_string(const Json& json, const std::string& key) {
  const Json& value = json.at(key);
  if (!value.is_string()) fail("field '" + key + "' must be a string");
  return value.as_string();
}

double get_number(const Json& json, const std::string& key,
                  double fallback) {
  const Json& value = json.at(key);
  if (value.is_null()) return fallback;
  if (!value.is_number()) fail("field '" + key + "' must be a number");
  return value.as_number();
}

/// Non-negative integer field (counts, seeds, byte budgets). Validates
/// integrality so "runs": 2.5 is rejected instead of truncated.
std::uint64_t get_u64(const Json& json, const std::string& key,
                      std::uint64_t fallback) {
  const Json& value = json.at(key);
  if (value.is_null()) return fallback;
  if (!value.is_number()) fail("field '" + key + "' must be a number");
  const double d = value.as_number();
  if (!(d >= 0) || d != std::floor(d) || d > 18446744073709549568.0)
    fail("field '" + key + "' must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

void validate_scenario_name(const std::string& name,
                            const std::vector<std::string>& registered) {
  if (std::find(registered.begin(), registered.end(), name) ==
      registered.end())
    fail("unknown scenario '" + name + "' (registered: " + join(registered) +
         ")");
}

ForwardingRequest parse_forwarding(const Json& json) {
  check_keys(json,
             {"id", "family", "scenario", "algorithms", "runs", "master_seed",
              "message_rate", "message_size_bytes", "message_ttl",
              "contact_budget_bytes", "buffer_capacity_bytes"});
  ForwardingRequest out;
  out.scenario = get_string(json, "scenario");
  validate_scenario_name(out.scenario, engine::scenario_names());

  const Json& algorithms = json.at("algorithms");
  if (algorithms.is_null()) {
    out.algorithms = {"Epidemic"};
  } else {
    if (!algorithms.is_array() || algorithms.as_array().empty())
      fail("field 'algorithms' must be a non-empty array of names");
    const std::vector<std::string> known =
        forward::extended_algorithm_names();
    for (const Json& name : algorithms.as_array()) {
      if (!name.is_string()) fail("algorithm names must be strings");
      if (std::find(known.begin(), known.end(), name.as_string()) ==
          known.end())
        fail("unknown algorithm '" + name.as_string() +
             "' (registered: " + join(known) + ")");
      // Deduplicate, preserving first-occurrence order: a duplicated
      // algorithm would collide with the coalescer's per-cell routing.
      if (std::find(out.algorithms.begin(), out.algorithms.end(),
                    name.as_string()) == out.algorithms.end())
        out.algorithms.push_back(name.as_string());
    }
  }

  out.runs = static_cast<std::size_t>(get_u64(json, "runs", 2));
  if (out.runs == 0) fail("field 'runs' must be at least 1");
  out.master_seed = get_u64(json, "master_seed", 7);
  out.message_rate = get_number(json, "message_rate", 0.01);
  if (!(out.message_rate > 0)) fail("field 'message_rate' must be positive");
  const std::uint64_t size_bytes = get_u64(json, "message_size_bytes", 1);
  if (size_bytes == 0) fail("field 'message_size_bytes' must be at least 1");
  if (size_bytes > std::numeric_limits<std::uint32_t>::max())
    fail("field 'message_size_bytes' must be at most 4294967295");
  out.message_size_bytes = static_cast<std::uint32_t>(size_bytes);
  out.message_ttl = get_number(json, "message_ttl", -1.0);
  out.contact_budget_bytes = get_u64(json, "contact_budget_bytes",
                                     forward::TrafficConfig::kUnlimited);
  out.buffer_capacity_bytes = get_u64(json, "buffer_capacity_bytes",
                                      forward::TrafficConfig::kUnlimited);
  return out;
}

PathRequest parse_path(const Json& json) {
  check_keys(json, {"id", "family", "scenario", "messages", "k", "seed"});
  PathRequest out;
  out.scenario = get_string(json, "scenario");
  validate_scenario_name(out.scenario, engine::scenario_names());
  out.messages = static_cast<std::size_t>(get_u64(json, "messages", 8));
  if (out.messages == 0) fail("field 'messages' must be at least 1");
  out.k = static_cast<std::size_t>(get_u64(json, "k", 256));
  if (out.k == 0) fail("field 'k' must be at least 1");
  out.seed = get_u64(json, "seed", 42);
  return out;
}

ModelRequest parse_model(const Json& json) {
  check_keys(json, {"id", "family", "scenario", "jump_replicas",
                    "mc_messages", "master_seed"});
  ModelRequest out;
  out.scenario = get_string(json, "scenario");
  validate_scenario_name(out.scenario, engine::model_scenario_names());
  out.jump_replicas =
      static_cast<std::size_t>(get_u64(json, "jump_replicas", 4));
  out.mc_messages = static_cast<std::size_t>(get_u64(json, "mc_messages", 0));
  out.master_seed = get_u64(json, "master_seed", 7);
  return out;
}

AdminRequest parse_admin(const Json& json) {
  check_keys(json, {"id", "family", "command", "scenario"});
  AdminRequest out;
  const std::string command = get_string(json, "command");
  if (command == "stats") {
    out.command = AdminCommand::kStats;
  } else if (command == "evict") {
    out.command = AdminCommand::kEvict;
    out.scenario = get_string(json, "scenario");
  } else if (command == "clear") {
    out.command = AdminCommand::kClear;
  } else if (command == "shutdown") {
    out.command = AdminCommand::kShutdown;
  } else {
    fail("unknown admin command '" + command +
         "' (known: stats, evict, clear, shutdown)");
  }
  return out;
}

}  // namespace

const char* family_name(Family family) noexcept {
  switch (family) {
    case Family::kForwarding: return "forwarding";
    case Family::kPath: return "path";
    case Family::kModel: return "model";
    case Family::kAdmin: return "admin";
  }
  return "unknown";
}

ForwardingRequest::ForwardingRequest()
    : contact_budget_bytes(forward::TrafficConfig::kUnlimited),
      buffer_capacity_bytes(forward::TrafficConfig::kUnlimited) {}

engine::PlanConfig ForwardingRequest::plan_config() const {
  engine::PlanConfig config;
  config.runs = runs;
  config.master_seed = master_seed;
  config.message_rate = message_rate;
  config.message_size_bytes = message_size_bytes;
  config.message_ttl = message_ttl > 0 ? message_ttl : forward::kNoTtl;
  config.traffic.contact_budget_bytes = contact_budget_bytes;
  config.traffic.buffer_capacity_bytes = buffer_capacity_bytes;
  return config;
}

std::string Request::batch_key() const {
  std::ostringstream key;
  key << family_name(family) << '|';
  switch (family) {
    case Family::kForwarding:
      // The algorithm list is deliberately absent: per-run seeds depend
      // only on (scenario, run), so same-key requests merge their
      // algorithm axes into one plan with bit-identical per-cell results.
      // The doubles go in shortest round-trip form (Json::dump's), so
      // requests that differ in any bit never share a key.
      key << forwarding.scenario << '|' << forwarding.runs << '|'
          << forwarding.master_seed << '|'
          << Json(forwarding.message_rate).dump() << '|'
          << forwarding.message_size_bytes << '|'
          << Json(forwarding.message_ttl).dump() << '|'
          << forwarding.contact_budget_bytes << '|'
          << forwarding.buffer_capacity_bytes;
      break;
    case Family::kPath:
      key << path.scenario << '|' << path.messages << '|' << path.k << '|'
          << path.seed;
      break;
    case Family::kModel:
      key << model.scenario << '|' << model.jump_replicas << '|'
          << model.mc_messages << '|' << model.master_seed;
      break;
    case Family::kAdmin:
      // Admin requests are executed individually (never merged); the key
      // only needs to be stable.
      key << static_cast<int>(admin.command) << '|' << admin.scenario;
      break;
  }
  return key.str();
}

Request parse_request(const Json& json) {
  if (!json.is_object()) fail("request must be a JSON object");
  Request out;
  const Json& id = json.at("id");
  if (!id.is_string() || id.as_string().empty())
    fail("field 'id' must be a non-empty string");
  out.id = id.as_string();

  const std::string family = get_string(json, "family");
  if (family == "forwarding") {
    out.family = Family::kForwarding;
    out.forwarding = parse_forwarding(json);
  } else if (family == "path") {
    out.family = Family::kPath;
    out.path = parse_path(json);
  } else if (family == "model") {
    out.family = Family::kModel;
    out.model = parse_model(json);
  } else if (family == "admin") {
    out.family = Family::kAdmin;
    out.admin = parse_admin(json);
  } else {
    fail("unknown family '" + family +
         "' (known: forwarding, path, model, admin)");
  }
  return out;
}

}  // namespace psn::serve
