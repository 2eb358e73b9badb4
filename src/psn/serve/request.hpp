// Request schema of the psn_serve protocol: parsing, validation, and the
// coalescing key.
//
// One request is one JSON object on one line. Three sweep families map
// onto the engine's three parallel sweeps, plus an admin family for the
// resident process itself:
//
//   {"id":"r1","family":"forwarding","scenario":"city_2048",
//    "algorithms":["Epidemic","FRESH"],"runs":2,"master_seed":7,
//    "message_rate":0.01}
//   {"id":"r2","family":"path","scenario":"campus_512","messages":8,
//    "k":256,"seed":42}
//   {"id":"r3","family":"model","scenario":"model_1k","jump_replicas":4}
//   {"id":"r4","family":"admin","command":"stats"}
//
// Parsing validates everything up front — scenario and algorithm names
// against the registries, numeric ranges against the engine's
// preconditions — so a malformed request is rejected with an error
// response instead of surfacing as an engine exception mid-batch.
//
// The coalescing key (batch_key) names the set of requests whose work can
// be merged into ONE engine execution with bit-identical per-request
// results. For forwarding requests the key deliberately EXCLUDES the
// algorithm list: workload_stream_seed / sim_stream_seed depend only on
// the run index — never the algorithm index — so merging the algorithm
// axes of several same-scenario, same-config requests into one plan
// yields per-algorithm cells bit-identical to running each request alone
// (serve_test pins this). Path and model requests coalesce only when
// fully identical (same key -> same payload, answered once, fanned out).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "psn/engine/run_spec.hpp"
#include "psn/serve/json.hpp"

namespace psn::serve {

/// Thrown by parse_request on a structurally valid JSON line that is not
/// a valid request; the message becomes the error response's "error".
class RequestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Family : std::uint8_t { kForwarding, kPath, kModel, kAdmin };

[[nodiscard]] const char* family_name(Family family) noexcept;

/// One forwarding sweep over a registered scenario (engine::run_sweep).
struct ForwardingRequest {
  std::string scenario;
  std::vector<std::string> algorithms;  ///< validated registry names.
  std::size_t runs = 2;
  std::uint64_t master_seed = 7;
  double message_rate = 0.01;
  std::uint32_t message_size_bytes = 1;
  double message_ttl = -1.0;  ///< seconds; <= 0 means no TTL.
  /// Network-side limits; TrafficConfig::kUnlimited when absent.
  std::uint64_t contact_budget_bytes;
  std::uint64_t buffer_capacity_bytes;

  ForwardingRequest();

  [[nodiscard]] engine::PlanConfig plan_config() const;
};

/// One k-path enumeration sample (engine::run_path_sweep).
struct PathRequest {
  std::string scenario;
  std::size_t messages = 8;
  std::size_t k = 256;
  std::uint64_t seed = 42;
};

/// One model sweep: jump ensemble and/or heterogeneous MC
/// (engine::run_model_sweep).
struct ModelRequest {
  std::string scenario;
  std::size_t jump_replicas = 4;
  /// Overrides the tier's MC message count; 0 keeps the tier default.
  std::size_t mc_messages = 0;
  std::uint64_t master_seed = 7;
};

enum class AdminCommand : std::uint8_t { kStats, kEvict, kClear, kShutdown };

struct AdminRequest {
  AdminCommand command = AdminCommand::kStats;
  std::string scenario;  ///< target of kEvict; unused otherwise.
};

/// A parsed, validated request. Exactly the member named by `family` is
/// meaningful.
struct Request {
  std::string id;
  Family family = Family::kForwarding;
  ForwardingRequest forwarding;
  PathRequest path;
  ModelRequest model;
  AdminRequest admin;

  /// Coalescing key: requests with equal keys execute as one engine call
  /// (see file comment). Admin requests never coalesce (unique key).
  [[nodiscard]] std::string batch_key() const;
};

/// Parses one request object. Throws RequestError (schema/validation) or
/// JsonError is not thrown here — callers parse the line first.
[[nodiscard]] Request parse_request(const Json& json);

}  // namespace psn::serve
