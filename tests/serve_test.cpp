// Tests for psn::serve — the JSON layer, request parsing/validation, and
// the SweepService's load-bearing properties: responses bit-identical to
// direct engine execution, lossless request coalescing, byte-budgeted
// scenario caching, telemetry, and the admin surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "psn/engine/scenario_context.hpp"
#include "psn/engine/scenario_registry.hpp"
#include "psn/engine/sweep.hpp"
#include "psn/engine/thread_pool.hpp"
#include "psn/serve/json.hpp"
#include "psn/serve/request.hpp"
#include "psn/serve/server.hpp"
#include "psn/serve/service.hpp"

namespace psn::serve {
namespace {

// ---------------------------------------------------------------- Json --

TEST(Json, ParseDumpRoundTripIsCanonical) {
  const std::string text =
      R"({"b":[1,2.5,true,null],"a":"x","nested":{"k":-3.25}})";
  const Json parsed = Json::parse(text);
  // Keys come back sorted (std::map), values exact.
  EXPECT_EQ(parsed.dump(),
            R"({"a":"x","b":[1,2.5,true,null],"nested":{"k":-3.25}})");
  // Canonical: dump(parse(dump)) is a fixpoint.
  EXPECT_EQ(Json::parse(parsed.dump()).dump(), parsed.dump());
}

TEST(Json, NumbersSurviveWriteParseCycleBitForBit) {
  for (const double value :
       {0.0, 1.0, -1.0, 0.1, 1e-300, 1e300, 0.9586776859504132,
        461.83257245856413, 2147483648.0, 1e17 + 1}) {
    const Json out(value);
    const Json back = Json::parse(out.dump());
    EXPECT_EQ(back.as_number(), value) << out.dump();
  }
}

TEST(Json, StringEscapes) {
  Json value(std::string("line\n\"quote\"\ttab\\"));
  const Json back = Json::parse(value.dump());
  EXPECT_EQ(back.as_string(), value.as_string());
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");

  const auto decoded = [](const char* text) {
    return Json::parse(text).as_string();
  };
  EXPECT_EQ(decoded(R"("\"\\\/\b\f\n\r\t")"), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(decoded(R"("\u00e9")"), "\xc3\xa9");
  // A surrogate pair is one code point past U+FFFF, here U+1F600.
  EXPECT_EQ(decoded(R"("\ud83d\ude00")"), "\xf0\x9f\x98\x80");
  // A lone or reversed surrogate decodes to U+FFFD per surrogate.
  EXPECT_EQ(decoded(R"("\ud83d")"), "\xef\xbf\xbd");
  EXPECT_EQ(decoded(R"("\ud83dx")"), "\xef\xbf\xbdx");
  EXPECT_EQ(decoded(R"("\ud83d\u0041")"), "\xef\xbf\xbd" "A");
  EXPECT_EQ(decoded(R"("\ude00\ud83d")"), "\xef\xbf\xbd\xef\xbf\xbd");
}

TEST(Json, MalformedInputThrows) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1}trailing", "{1:2}", "nullx"}) {
    EXPECT_THROW((void)Json::parse(bad), JsonError) << bad;
  }
}

TEST(Json, AccessorsAndMissingKeys) {
  const Json json = Json::parse(R"({"a":1,"s":"v"})");
  EXPECT_TRUE(json.at("missing").is_null());
  EXPECT_FALSE(json.contains("missing"));
  EXPECT_TRUE(json.contains("a"));
  EXPECT_THROW((void)json.at("s").as_number(), JsonError);
}

// ------------------------------------------------------------- Request --

// A seeded mutation fuzzer over this file's request lines and JSON
// strings. Every mutant must parse or throw JsonError; a parsed value's
// dump() must re-parse to the same dump(); and parse_request must return
// or throw RequestError. Anything else (another exception, a crash, or
// under ASan/UBSan a memory or UB report) is a finding.
TEST(Fuzz, MutatedLinesParseOrFailCleanly) {
  const std::vector<std::string> corpus = {
      R"({"id":"r1","family":"forwarding","scenario":"conference_small"})",
      R"({"id":"a","family":"forwarding","scenario":"conference_small",)"
      R"("algorithms":["Epidemic","PRoPHET","Spray+Wait"],"runs":2,)"
      R"("master_seed":7,"message_rate":0.01,"message_size_bytes":4294967295,)"
      R"("message_ttl":3600.0001,"contact_budget_bytes":1000,)"
      R"("buffer_capacity_bytes":5000})",
      R"({"id":"p3","family":"path","scenario":"random_waypoint","k":8,)"
      R"("messages":2,"seed":3})",
      R"({"id":"m","family":"model","scenario":"model_100",)"
      R"("jump_replicas":2,"mc_messages":10,"master_seed":1})",
      R"({"id":"s","family":"admin","command":"evict",)"
      R"("scenario":"conference_small"})",
      R"({"id":"t","family":"admin","command":"stats"})",
      R"({"b":[1,2.5,true,null],"a":"x","nested":{"k":-3.25}})",
      R"("Aé")", R"("\"\\\/\b\f\n\r\t")", R"("\u00e9")",
      R"("\ud83d\ude00")", R"("\ud83d")", R"("\ud83dx")",
      R"("\ud83d\u0041")", R"("\ude00\ud83d")",
      R"([1e999,1e400,-0,123456789012345678901234567890,-1.5e-300])",
  };
  constexpr char kPunctuation[] = "{}[]:,\"\\-+.eEu0 ";
  std::mt19937_64 rng(20);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t parsed = 0;
  std::size_t requests = 0;
  for (int iteration = 0; iteration < 100'000; ++iteration) {
    std::string text = corpus[below(corpus.size())];
    for (std::size_t m = 1 + below(4); m > 0; --m) {
      const std::size_t at = below(text.size() + 1);
      const std::size_t len = std::min<std::size_t>(1 + below(8),
                                                    text.size() - at);
      switch (below(5)) {
        case 0:  // flip one bit of one byte.
          if (at < text.size())
            text[at] = static_cast<char>(text[at] ^ (1 << below(8)));
          break;
        case 1:  // insert JSON punctuation.
          text.insert(at, 1, kPunctuation[below(sizeof kPunctuation - 1)]);
          break;
        case 2:  // delete a span.
          text.erase(at, len);
          break;
        case 3:  // duplicate a span in place.
          text.insert(at, text.substr(at, len));
          break;
        default: {  // splice: this prefix, another entry's suffix.
          const std::string& other = corpus[below(corpus.size())];
          text = text.substr(0, at) + other.substr(below(other.size() + 1));
        }
      }
      if (text.size() > 4096) text.resize(4096);
    }
    Json value;
    try {
      value = Json::parse(text);
    } catch (const JsonError&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "Json::parse threw " << e.what() << " on: " << text;
    }
    ++parsed;
    const std::string dumped = value.dump();
    try {
      ASSERT_EQ(Json::parse(dumped).dump(), dumped) << "from: " << text;
    } catch (const std::exception& e) {
      FAIL() << "dump() did not re-parse (" << e.what() << "): " << dumped;
    }
    try {
      (void)parse_request(value);
      ++requests;
    } catch (const RequestError&) {
    } catch (const std::exception& e) {
      FAIL() << "parse_request threw " << e.what() << " on: " << text;
    }
  }
  // Not vacuous: a fair share of mutants stays well-formed JSON, and some
  // stay valid requests.
  EXPECT_GT(parsed, 10'000u);
  EXPECT_GT(requests, 100u);
}


Json request_json(const std::string& text) { return Json::parse(text); }

TEST(Request, ParsesForwardingWithDefaults) {
  const Request request = parse_request(request_json(
      R"({"id":"r1","family":"forwarding","scenario":"conference_small"})"));
  EXPECT_EQ(request.id, "r1");
  EXPECT_EQ(request.family, Family::kForwarding);
  EXPECT_EQ(request.forwarding.scenario, "conference_small");
  EXPECT_EQ(request.forwarding.algorithms,
            std::vector<std::string>{"Epidemic"});
  EXPECT_EQ(request.forwarding.runs, 2u);
  EXPECT_EQ(request.forwarding.master_seed, 7u);
}

TEST(Request, ValidationErrors) {
  const auto expect_rejected = [](const char* text) {
    EXPECT_THROW((void)parse_request(request_json(text)), RequestError)
        << text;
  };
  expect_rejected(R"({"family":"forwarding","scenario":"conference_small"})");
  expect_rejected(R"({"id":"x","family":"nope"})");
  expect_rejected(R"({"id":"x","family":"forwarding","scenario":"nope"})");
  expect_rejected(
      R"({"id":"x","family":"forwarding","scenario":"conference_small",
          "algorithms":["NoSuch"]})");
  expect_rejected(
      R"({"id":"x","family":"forwarding","scenario":"conference_small",
          "algorithms":[]})");
  expect_rejected(
      R"({"id":"x","family":"forwarding","scenario":"conference_small",
          "runs":0})");
  expect_rejected(
      R"({"id":"x","family":"forwarding","scenario":"conference_small",
          "runs":2.5})");
  expect_rejected(
      R"({"id":"x","family":"forwarding","scenario":"conference_small",
          "algorithm":["Epidemic"]})");  // typoed field name
  // Message sizes are 32-bit: anything larger is rejected as too large
  // rather than narrowed (2^32 + 1 used to run as a 1-byte message).
  for (const char* size : {"4294967296", "4294967297"}) {
    const std::string text =
        std::string(R"({"id":"x","family":"forwarding",)"
                    R"("scenario":"conference_small","message_size_bytes":)") +
        size + "}";
    expect_rejected(text.c_str());
    try {
      (void)parse_request(request_json(text));
    } catch (const RequestError& e) {
      EXPECT_NE(std::string(e.what()).find("at most 4294967295"),
                std::string::npos)
          << e.what();
    }
  }
  expect_rejected(R"({"id":"x","family":"path","scenario":"conference_small",
                      "messages":0})");
  expect_rejected(R"({"id":"x","family":"model","scenario":"nope"})");
  expect_rejected(R"({"id":"x","family":"admin","command":"nope"})");
}

TEST(Request, ParsesModelWithDefaults) {
  const Request request = parse_request(request_json(
      R"({"id":"m","family":"model","scenario":"model_100"})"));
  EXPECT_EQ(request.id, "m");
  EXPECT_EQ(request.family, Family::kModel);
  EXPECT_EQ(request.model.scenario, "model_100");
  EXPECT_EQ(request.model.jump_replicas, 4u);
  EXPECT_EQ(request.model.mc_messages, 0u);
  EXPECT_EQ(request.model.master_seed, 7u);
  // An unknown field, and a forwarding tier's name, are rejected.
  EXPECT_THROW((void)parse_request(request_json(
                   R"({"id":"m","family":"model","scenario":"model_100",
                       "runs":2})")),
               RequestError);
  EXPECT_THROW((void)parse_request(request_json(
                   R"({"id":"m","family":"model","scenario":"town_128"})")),
               RequestError);
}

TEST(Request, BatchKeyIgnoresAlgorithmsAndRespectsConfig) {
  const Request a = parse_request(request_json(
      R"({"id":"a","family":"forwarding","scenario":"conference_small",
          "algorithms":["Epidemic"]})"));
  const Request b = parse_request(request_json(
      R"({"id":"b","family":"forwarding","scenario":"conference_small",
          "algorithms":["FRESH","Greedy"]})"));
  const Request c = parse_request(request_json(
      R"({"id":"c","family":"forwarding","scenario":"conference_small",
          "algorithms":["Epidemic"],"runs":3})"));
  const Request d = parse_request(request_json(
      R"({"id":"d","family":"forwarding","scenario":"random_waypoint",
          "algorithms":["Epidemic"]})"));
  EXPECT_EQ(a.batch_key(), b.batch_key());
  EXPECT_NE(a.batch_key(), c.batch_key());
  EXPECT_NE(a.batch_key(), d.batch_key());

  // Rates and TTLs that differ only past the sixth significant digit are
  // different requests: their doubles key in shortest round-trip form.
  const auto key_with = [](const std::string& field) {
    return parse_request(request_json(
               R"({"id":"x","family":"forwarding","scenario":"random_waypoint",
                   "algorithms":["Epidemic"],)" +
               field + "}"))
        .batch_key();
  };
  EXPECT_NE(key_with(R"("message_rate":0.01000001)"),
            key_with(R"("message_rate":0.01000002)"));
  EXPECT_NE(key_with(R"("message_ttl":3600.0001)"),
            key_with(R"("message_ttl":3600.0002)"));

  const Request p1 = parse_request(request_json(
      R"({"id":"p1","family":"path","scenario":"random_waypoint"})"));
  const Request p2 = parse_request(request_json(
      R"({"id":"p2","family":"path","scenario":"random_waypoint"})"));
  const Request p3 = parse_request(request_json(
      R"({"id":"p3","family":"path","scenario":"random_waypoint","k":8})"));
  EXPECT_EQ(p1.batch_key(), p2.batch_key());
  EXPECT_NE(p1.batch_key(), p3.batch_key());
  EXPECT_NE(a.batch_key(), p1.batch_key());
}

// ------------------------------------------------------------- Service --

Request forwarding_request(const std::string& id,
                           std::vector<std::string> algorithms) {
  Request request;
  request.id = id;
  request.family = Family::kForwarding;
  request.forwarding.scenario = "random_waypoint";
  request.forwarding.algorithms = std::move(algorithms);
  request.forwarding.runs = 2;
  request.forwarding.message_rate = 0.02;
  return request;
}

TEST(Service, ForwardingResponseMatchesDirectEngineExecution) {
  ServiceConfig config;
  config.threads = 2;
  config.batch_window_seconds = 0.0;
  SweepService service(config);
  const Json response =
      service.execute(forwarding_request("r1", {"Epidemic", "FRESH"}));

  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  const Json& result = response.at("result");
  EXPECT_EQ(result.at("scenario").as_string(), "random_waypoint");

  // The same sweep executed directly on the engine.
  const auto scenario = engine::make_scenario_by_name("random_waypoint");
  engine::PlanConfig plan_config;
  plan_config.runs = 2;
  plan_config.message_rate = 0.02;
  engine::ThreadPool pool(2);
  engine::SweepOptions options;
  options.pool = &pool;
  const auto direct = engine::run_sweep(
      engine::make_plan({scenario}, {"Epidemic", "FRESH"}, plan_config),
      options);

  const Json::Array& cells = result.at("cells").as_array();
  ASSERT_EQ(cells.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = direct.cell(0, i);
    EXPECT_EQ(cells[i].at("algorithm").as_string(), cell.algorithm);
    EXPECT_EQ(cells[i].at("success_rate").as_number(),
              cell.overall.success_rate);
    EXPECT_EQ(cells[i].at("average_delay").as_number(),
              cell.overall.average_delay);
    EXPECT_EQ(cells[i].at("average_hops").as_number(),
              cell.overall.average_hops);
    EXPECT_EQ(cells[i].at("delivered").as_number(),
              static_cast<double>(cell.overall.delivered));
    EXPECT_EQ(cells[i].at("cost_per_message").as_number(),
              cell.cost_per_message);
  }

  // Telemetry is present and self-consistent.
  const Json& telemetry = response.at("telemetry");
  EXPECT_TRUE(telemetry.at("cache_hit").is_bool());
  EXPECT_EQ(telemetry.at("batch_size").as_number(), 1.0);
  EXPECT_GE(telemetry.at("latency_seconds").as_number(),
            telemetry.at("run_wall_seconds").as_number());
}

TEST(Service, CoalescedBatchIsBitIdenticalToSerialExecution) {
  // Serial reference: each request alone (no batching window).
  ServiceConfig serial_config;
  serial_config.threads = 2;
  serial_config.batch_window_seconds = 0.0;
  std::string serial_a;
  std::string serial_b;
  {
    SweepService service(serial_config);
    serial_a =
        service.execute(forwarding_request("a", {"Epidemic"})).at("result")
            .dump();
    serial_b =
        service.execute(forwarding_request("b", {"FRESH", "Greedy"}))
            .at("result")
            .dump();
  }

  // Batched: both requests admitted within one generous window coalesce
  // into a single engine execution.
  ServiceConfig batched_config;
  batched_config.threads = 2;
  batched_config.batch_window_seconds = 0.5;
  SweepService service(batched_config);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Json> responses(2);
  std::atomic<int> done{0};
  const auto callback = [&](std::size_t slot) {
    return [&, slot](const Json& response) {
      {
        std::lock_guard<std::mutex> lock(mu);
        responses[slot] = response;
      }
      ++done;
      cv.notify_all();
    };
  };
  service.enqueue(forwarding_request("a", {"Epidemic"}), callback(0));
  service.enqueue(forwarding_request("b", {"FRESH", "Greedy"}), callback(1));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.load() == 2; });
  }

  for (const Json& response : responses) {
    ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
    // Both were served by one coalesced engine execution...
    EXPECT_EQ(response.at("telemetry").at("batch_size").as_number(), 2.0);
    EXPECT_TRUE(response.at("telemetry").at("coalesced").as_bool());
  }
  // ...and their result payloads are bit-identical (canonical dump) to
  // the serial single-request executions.
  EXPECT_EQ(responses[0].at("result").dump(), serial_a);
  EXPECT_EQ(responses[1].at("result").dump(), serial_b);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.coalesced_requests, 2u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(Service, SecondRequestHitsScenarioCache) {
  engine::ScenarioContextCache::instance().clear();
  ServiceConfig config;
  config.threads = 2;
  config.batch_window_seconds = 0.0;
  SweepService service(config);

  const Json cold = service.execute(forwarding_request("c", {"Epidemic"}));
  const Json warm = service.execute(forwarding_request("w", {"Epidemic"}));
  EXPECT_FALSE(cold.at("telemetry").at("cache_hit").as_bool());
  EXPECT_TRUE(warm.at("telemetry").at("cache_hit").as_bool());
  // Identical requests produce identical result payloads either way.
  EXPECT_EQ(cold.at("result").dump(), warm.at("result").dump());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(Service, SnapshotWallIsTheSnapshotShareOfRunWall) {
  ServiceConfig config;
  config.threads = 2;
  config.batch_window_seconds = 0.0;
  SweepService service(config);
  const auto snapshot_wall = [](const Json& response) {
    EXPECT_TRUE(response.at("ok").as_bool()) << response.dump();
    const Json& telemetry = response.at("telemetry");
    EXPECT_LE(telemetry.at("snapshot_wall_seconds").as_number(),
              telemetry.at("run_wall_seconds").as_number());
    return telemetry.at("snapshot_wall_seconds").as_number();
  };

  // Direct publishes no snapshot, so no snapshot wave runs.
  const Json direct = service.execute(forwarding_request("d", {"Direct"}));
  EXPECT_EQ(snapshot_wall(direct), 0.0);

  // After an evict the context and its PRoPHET snapshot are rebuilt, and
  // the rebuild shows up as the snapshot share of the run wall.
  (void)snapshot_wall(service.execute(forwarding_request("p1", {"PRoPHET"})));
  Request evict;
  evict.id = "evict";
  evict.family = Family::kAdmin;
  evict.admin.command = AdminCommand::kEvict;
  evict.admin.scenario = "random_waypoint";
  EXPECT_EQ(snapshot_wall(service.execute(std::move(evict))), 0.0);
  const Json rebuilt = service.execute(forwarding_request("p2", {"PRoPHET"}));
  EXPECT_GT(snapshot_wall(rebuilt), 0.0);
}

TEST(Service, TinyBudgetForcesRebuildEveryRequest) {
  auto& cache = engine::ScenarioContextCache::instance();
  const auto old_budget = cache.budget_bytes();
  cache.clear();

  {
    ServiceConfig config;
    config.threads = 2;
    config.batch_window_seconds = 0.0;
    config.cache_budget_bytes = 1;  // nothing fits: no retention at all.
    SweepService service(config);
    const Json first = service.execute(forwarding_request("1", {"Epidemic"}));
    const Json second =
        service.execute(forwarding_request("2", {"Epidemic"}));
    EXPECT_FALSE(first.at("telemetry").at("cache_hit").as_bool());
    EXPECT_FALSE(second.at("telemetry").at("cache_hit").as_bool());
    // Residency is pinned at zero the whole time.
    EXPECT_EQ(cache.stats().resident_bytes, 0u);
    // Both rebuilds produced the same bits regardless.
    EXPECT_EQ(first.at("result").dump(), second.at("result").dump());

    // A path group holds the context it acquired, so its sweep finds the
    // graph instead of building it a second time.
    const auto graphs_before = cache.graphs_built();
    const Json path = service.execute(parse_request(request_json(
        R"({"id":"p","family":"path","scenario":"random_waypoint"})")));
    ASSERT_TRUE(path.at("ok").as_bool()) << path.dump();
    EXPECT_FALSE(path.at("telemetry").at("cache_hit").as_bool());
    EXPECT_EQ(cache.graphs_built(), graphs_before + 1);
  }

  cache.set_budget_bytes(old_budget);
}

TEST(Service, EngineFailureAnswersErrorAndServiceKeepsServing) {
  ServiceConfig config;
  config.threads = 1;
  config.batch_window_seconds = 0.0;
  SweepService service(config);

  // parse_request would reject this scenario name; a hand-built request
  // skips that validation, so the group's engine call throws.
  Request bad = forwarding_request("bad", {"Epidemic"});
  bad.forwarding.scenario = "no_such_scenario";
  const Json error = service.execute(std::move(bad));
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("id").as_string(), "bad");
  ASSERT_TRUE(error.at("error").is_string()) << error.dump();
  EXPECT_NE(error.at("error").as_string().find("no_such_scenario"),
            std::string::npos);
  EXPECT_EQ(service.stats().responses_error, 1u);

  const Json next = service.execute(forwarding_request("next", {"Epidemic"}));
  EXPECT_TRUE(next.at("ok").as_bool()) << next.dump();
  EXPECT_EQ(service.stats().responses_ok, 1u);
}

TEST(Service, PathAndModelFamilies) {
  ServiceConfig config;
  config.threads = 2;
  config.batch_window_seconds = 0.0;
  SweepService service(config);

  Request path;
  path.id = "p";
  path.family = Family::kPath;
  path.path.scenario = "random_waypoint";
  path.path.messages = 4;
  path.path.k = 32;
  const Json path_response = service.execute(std::move(path));
  ASSERT_TRUE(path_response.at("ok").as_bool()) << path_response.dump();
  EXPECT_EQ(path_response.at("result").at("messages").as_number(), 4.0);
  EXPECT_EQ(path_response.at("result").at("records").as_array().size(), 4u);

  Request model;
  model.id = "m";
  model.family = Family::kModel;
  model.model.scenario = "model_100";
  model.model.jump_replicas = 2;
  model.model.mc_messages = 4;
  const Json model_response = service.execute(std::move(model));
  ASSERT_TRUE(model_response.at("ok").as_bool()) << model_response.dump();
  EXPECT_EQ(model_response.at("result").at("population").as_number(), 100.0);
  EXPECT_EQ(model_response.at("result").at("mc_messages").as_number(), 4.0);
}

TEST(Service, AdminStatsEvictClearShutdown) {
  ServiceConfig config;
  config.threads = 1;
  config.batch_window_seconds = 0.0;
  SweepService service(config);

  // Warm one scenario so evict has a target.
  (void)service.execute(forwarding_request("warm", {"Epidemic"}));

  Request stats;
  stats.id = "s";
  stats.family = Family::kAdmin;
  stats.admin.command = AdminCommand::kStats;
  const Json stats_response = service.execute(std::move(stats));
  ASSERT_TRUE(stats_response.at("ok").as_bool());
  EXPECT_GE(stats_response.at("result").at("requests").as_number(), 1.0);
  EXPECT_TRUE(stats_response.at("result").at("cache").is_object());

  Request evict;
  evict.id = "e";
  evict.family = Family::kAdmin;
  evict.admin.command = AdminCommand::kEvict;
  evict.admin.scenario = "random_waypoint";
  const Json evict_response = service.execute(std::move(evict));
  EXPECT_EQ(evict_response.at("result").at("evicted").as_number(), 1.0);

  Request clear;
  clear.id = "c";
  clear.family = Family::kAdmin;
  clear.admin.command = AdminCommand::kClear;
  EXPECT_TRUE(service.execute(std::move(clear)).at("ok").as_bool());

  EXPECT_FALSE(service.shutdown_requested());
  Request shutdown;
  shutdown.id = "x";
  shutdown.family = Family::kAdmin;
  shutdown.admin.command = AdminCommand::kShutdown;
  const Json shutdown_response = service.execute(std::move(shutdown));
  EXPECT_TRUE(shutdown_response.at("result").at("shutting_down").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(Service, PeriodicStatsLineEveryNResponses) {
  std::ostringstream stats_lines;
  ServiceConfig config;
  config.threads = 1;
  config.batch_window_seconds = 0.0;
  config.stats_every = 2;
  config.stats_stream = &stats_lines;
  SweepService service(config);
  for (int i = 0; i < 4; ++i) {
    Request stats;
    stats.id = "s" + std::to_string(i);
    stats.family = Family::kAdmin;
    stats.admin.command = AdminCommand::kStats;
    ASSERT_TRUE(service.execute(std::move(stats)).at("ok").as_bool());
  }
  // The line is written after the response callback, before the
  // dispatcher goes idle, so drain() orders it before the read below.
  service.drain();

  std::istringstream stream(stats_lines.str());
  std::vector<Json> lines;
  for (std::string line; std::getline(stream, line);)
    lines.push_back(Json::parse(line));
  ASSERT_EQ(lines.size(), 2u) << stats_lines.str();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].at("type").as_string(), "stats");
    EXPECT_EQ(lines[i].at("responses_ok").as_number(),
              static_cast<double>(2 * (i + 1)));
  }
}

// The config bounds are checked in config_'s initializer, before pool_
// starts a thread, so none of these cases starts one past the cap.
TEST(Service, RejectsThreadsPastTheCap) {
  for (const std::size_t threads : {SweepService::kMaxThreads + 1,
                                    std::numeric_limits<std::size_t>::max()}) {
    ServiceConfig config;
    config.threads = threads;
    EXPECT_THROW(SweepService{config}, std::invalid_argument) << threads;
  }
}

TEST(Service, RejectsBatchWindowOutsideZeroToSixtySeconds) {
  for (const double window : {-0.001, 60.001, 1e300}) {
    ServiceConfig config;
    config.threads = 1;
    config.batch_window_seconds = window;
    EXPECT_THROW(SweepService{config}, std::invalid_argument) << window;
  }
  for (const double window : {0.0, SweepService::kMaxBatchWindowSeconds}) {
    ServiceConfig config;
    config.threads = 1;
    config.batch_window_seconds = window;
    EXPECT_NO_THROW(SweepService{config}) << window;
  }
}

TEST(Service, RejectsNonFiniteBatchWindow) {
  for (const double window : {std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    ServiceConfig config;
    config.threads = 1;
    config.batch_window_seconds = window;
    EXPECT_THROW(SweepService{config}, std::invalid_argument) << window;
  }
}

TEST(Server, ProcessLineRejectsMalformedInputWithoutDying) {
  ServiceConfig config;
  config.threads = 1;
  config.batch_window_seconds = 0.0;
  SweepService service(config);

  std::vector<std::string> lines;
  std::mutex mu;
  const auto write_line = [&](const std::string& text) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(text);
  };

  process_line(service, "not json", write_line);
  process_line(service, R"({"id":"v","family":"nope"})", write_line);
  process_line(service, "   ", write_line);  // blank: ignored entirely.
  service.drain();

  ASSERT_EQ(lines.size(), 2u);
  const Json parse_error = Json::parse(lines[0]);
  EXPECT_FALSE(parse_error.at("ok").as_bool());
  const Json validation_error = Json::parse(lines[1]);
  EXPECT_FALSE(validation_error.at("ok").as_bool());
  EXPECT_EQ(validation_error.at("id").as_string(), "v");
}

}  // namespace
}  // namespace psn::serve
