// Serve-loop suite: the NDJSON session protocol over plain streams — one
// event per line, accepted/result/done framing, per-point metrics that
// match the direct run_scenario path exactly, malformed requests that
// never kill the session, and cross-session dedup through one shared
// engine.
#include "core/store/serve.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"

namespace gpupower::core {
namespace {

using analysis::JsonValue;

const char kCampaignSpec[] =
    R"json({"scenario": "campaign", "name": "serve_fixture",)json"
    R"json( "base": {"scenario": "static", "experiment": {"gpu": "a100",)json"
    R"json( "dtype": "fp16", "n": 64, "seeds": 1,)json"
    R"json( "pattern": "gaussian(sigma=210)",)json"
    R"json( "sampling": {"tiles": 4, "k_fraction": 0.5}}},)json"
    R"json( "axes": [{"field": "experiment.n", "values": [)json"
    R"json( {"value": 64, "label": "n64"}, {"value": 96, "label": "n96"}]}]})json";

const char kSingleSpec[] =
    R"json({"scenario": "static", "experiment": {"gpu": "a100",)json"
    R"json( "dtype": "fp16", "n": 64, "seeds": 1,)json"
    R"json( "pattern": "gaussian(sigma=210)",)json"
    R"json( "sampling": {"tiles": 4, "k_fraction": 0.5}}})json";

ExperimentEngine make_engine() {
  EngineOptions options;
  options.workers = 2;
  return ExperimentEngine(options);
}

/// Runs one session over string streams and parses every emitted line.
std::vector<JsonValue> run_session(ExperimentEngine& engine,
                                   const std::string& input,
                                   const ServeOptions& options = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  (void)serve_session(engine, in, out, options);

  std::vector<JsonValue> events;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto parsed = analysis::json_parse(line);
    EXPECT_TRUE(parsed.ok) << "unparseable event line: " << line;
    if (parsed.ok) events.push_back(parsed.value);
  }
  return events;
}

std::string str_field(const JsonValue& event, const char* key) {
  const JsonValue* value = event.find(key);
  return value != nullptr ? value->as_string() : std::string();
}

double num_field(const JsonValue& event, const char* key) {
  const JsonValue* value = event.find(key);
  return value != nullptr ? value->as_number(-1.0) : -1.0;
}

std::string event_type(const JsonValue& event) {
  return str_field(event, "type");
}

// One campaign request: accepted first, every point exactly once, done
// last, and each point's metrics bit-equal to the direct run_scenario
// path (the engine result and the serial result are bit-identical by the
// engine's own contract; JSON round-trips doubles exactly).
TEST(ServeSession, StreamsCampaignResultsMatchingDirectRuns) {
  ExperimentEngine engine = make_engine();
  const auto events = run_session(engine, std::string(kCampaignSpec) + "\n");

  const SpecParseResult spec = parse_scenario_spec_text(kCampaignSpec);
  ASSERT_TRUE(spec.ok) << spec.error;
  std::vector<CampaignPoint> points;
  std::string error;
  ASSERT_TRUE(expand_campaign(spec.spec, points, error)) << error;

  ASSERT_EQ(events.size(), points.size() + 2);
  EXPECT_EQ(event_type(events.front()), "accepted");
  EXPECT_EQ(num_field(events.front(), "points"), 2.0);
  EXPECT_EQ(str_field(events.front(), "scenario"), "static");
  EXPECT_EQ(event_type(events.back()), "done");

  std::map<std::string, const JsonValue*> by_label;
  for (const JsonValue& event : events) {
    if (event_type(event) != "result") continue;
    by_label[str_field(event, "point")] = &event;
  }
  ASSERT_EQ(by_label.size(), points.size());

  for (const auto& point : points) {
    ASSERT_TRUE(by_label.count(point.label)) << point.label;
    const JsonValue& event = *by_label[point.label];
    const JsonValue* metrics = event.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const ScenarioResult reference = run_scenario(point.config);
    for (const auto& [metric, value] : scenario_summary_metrics(reference)) {
      const JsonValue* emitted = metrics->find(metric);
      ASSERT_NE(emitted, nullptr) << metric;
      EXPECT_DOUBLE_EQ(emitted->as_number(0), value)
          << point.label << "." << metric;
    }
  }
}

// A single-scenario request is labelled with its kind name.
TEST(ServeSession, SingleScenarioPointIsLabelledByKind) {
  ExperimentEngine engine = make_engine();
  const auto events = run_session(engine, std::string(kSingleSpec) + "\n");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(event_type(events[1]), "result");
  EXPECT_EQ(str_field(events[1], "point"), "static");
  EXPECT_EQ(str_field(events[1], "scenario"), "static");
}

// One bad line must not kill a long-lived service: the session reports an
// error for request 1 and still serves request 2.
TEST(ServeSession, MalformedLineEmitsErrorAndSessionContinues) {
  ExperimentEngine engine = make_engine();
  const auto events = run_session(
      engine, "this is not a spec\n" + std::string(kSingleSpec) + "\n");

  ASSERT_GE(events.size(), 4u);
  std::size_t errors = 0;
  std::size_t results = 0;
  for (const JsonValue& event : events) {
    if (event_type(event) == "error") {
      ++errors;
      EXPECT_EQ(num_field(event, "req"), 1.0);
    }
    if (event_type(event) == "result") {
      ++results;
      EXPECT_EQ(num_field(event, "req"), 2.0);
    }
  }
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(results, 1u);
}

// A spec that parses but fails validation (zero seeds) also stays an
// error event, not an exception out of the session.
TEST(ServeSession, InvalidConfigBecomesErrorEvent) {
  ExperimentEngine engine = make_engine();
  const std::string bad =
      R"json({"scenario": "static", "experiment": {"dtype": "fp16", "n": 64,)json"
      R"json( "seeds": 0, "pattern": "gaussian(sigma=210)"}})json";
  const auto events = run_session(engine, bad + "\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(event_type(events.front()), "error");
}

// The `stats` keyword answers with the engine counter line.
TEST(ServeSession, StatsKeywordEmitsEngineCounters) {
  ExperimentEngine engine = make_engine();
  const auto events = run_session(engine, "stats\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(event_type(events.front()), "stats");
  EXPECT_NE(str_field(events.front(), "engine").find("submitted"),
            std::string::npos);
}

// {"cmd":"stats"} is the JSON spelling of the same request — a line with a
// "cmd" key is a command, never a spec.
TEST(ServeSession, JsonCmdStatsEmitsStatsEvent) {
  ExperimentEngine engine = make_engine();
  const auto events = run_session(engine, "{\"cmd\":\"stats\"}\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(event_type(events.front()), "stats");
}

// An unknown command stays an error event (naming the supported command),
// not a spec-parse error and not a dead session.
TEST(ServeSession, UnknownCmdEmitsErrorAndSessionContinues) {
  ExperimentEngine engine = make_engine();
  const auto events = run_session(
      engine, "{\"cmd\":\"selfdestruct\"}\n" + std::string(kSingleSpec) + "\n");
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(event_type(events.front()), "error");
  EXPECT_NE(str_field(events.front(), "error").find("cmd"),
            std::string::npos);
  std::size_t results = 0;
  for (const JsonValue& event : events) {
    if (event_type(event) == "result") ++results;
  }
  EXPECT_EQ(results, 1u);
}

// Pins the stats-event schema to ExperimentEngine::metrics_json(): one
// schema shared by serve and `gpowerctl --metrics-out`, so consumers of
// either never see them drift apart.
TEST(ServeSession, StatsEventEmbedsTheMetricsJsonSchema) {
  ExperimentEngine engine = make_engine();
  const auto events =
      run_session(engine, std::string(kSingleSpec) + "\nstats\n");
  const JsonValue* stats_event = nullptr;
  for (const JsonValue& event : events) {
    if (event_type(event) == "stats") stats_event = &event;
  }
  ASSERT_NE(stats_event, nullptr);
  const JsonValue& stats = *stats_event;

  const JsonValue* metrics = stats.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* schema = metrics->find("gpupower_metrics");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_number(0), 1.0);

  // Same top-level keys as a direct metrics_json() call.
  const JsonValue direct = engine.metrics_json();
  EXPECT_EQ(metrics->keys(), direct.keys());

  const JsonValue* engine_block = metrics->find("engine");
  ASSERT_NE(engine_block, nullptr);
  EXPECT_NE(engine_block->find("workers"), nullptr);
  EXPECT_NE(engine_block->find("by_kind"), nullptr);
  const JsonValue* obs_block = metrics->find("obs");
  ASSERT_NE(obs_block, nullptr);
  EXPECT_NE(obs_block->find("counters"), nullptr);
  EXPECT_NE(obs_block->find("histograms"), nullptr);
}

// stats_every=N streams a stats event after every N completed scenarios —
// the long-lived-session health feed — without disturbing the
// accepted/result/done framing.
TEST(ServeSession, PeriodicStatsFollowEveryCompletedScenario) {
  ExperimentEngine engine = make_engine();
  ServeOptions options;
  options.stats_every = 1;
  const auto events =
      run_session(engine, std::string(kCampaignSpec) + "\n", options);

  // accepted + (result + stats) x 2 + done.
  ASSERT_EQ(events.size(), 6u);
  std::size_t stats_events = 0;
  for (const JsonValue& event : events) {
    if (event_type(event) != "stats") continue;
    ++stats_events;
    EXPECT_NE(event.find("metrics"), nullptr);
  }
  EXPECT_EQ(stats_events, 2u);
  EXPECT_EQ(event_type(events.back()), "done");
}

// Two sessions against one engine: the second client's identical campaign
// is served entirely from the shared cache — the multi-client dedup the
// serve mode exists for.
TEST(ServeSession, SecondSessionDedupsThroughSharedEngine) {
  ExperimentEngine engine = make_engine();
  (void)run_session(engine, std::string(kCampaignSpec) + "\n");
  const EngineStats after_first = engine.stats();
  EXPECT_EQ(after_first.jobs_computed, 2u);

  const auto events = run_session(engine, std::string(kCampaignSpec) + "\n");
  ASSERT_EQ(events.size(), 4u);  // accepted + 2 results + done

  const EngineStats after_second = engine.stats();
  EXPECT_EQ(after_second.jobs_computed, 2u);  // nothing recomputed
  EXPECT_EQ(after_second.cache_hits, after_first.cache_hits + 2);
}

// --full attaches the spec and the exact result codec to every result.
TEST(ServeSession, FullResultsAttachSpecAndResult) {
  ExperimentEngine engine = make_engine();
  ServeOptions options;
  options.full_results = true;
  const auto events =
      run_session(engine, std::string(kSingleSpec) + "\n", options);
  ASSERT_EQ(events.size(), 3u);
  const JsonValue* spec = events[1].find("spec");
  ASSERT_NE(spec, nullptr);
  const SpecParseResult echoed = parse_scenario_spec(*spec);
  ASSERT_TRUE(echoed.ok) << echoed.error;
  EXPECT_EQ(canonical_scenario_key(echoed.spec.config),
            canonical_scenario_key(
                parse_scenario_spec_text(kSingleSpec).spec.config));
  const JsonValue* result = events[1].find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_NE(result->find("power_w"), nullptr);
}

}  // namespace
}  // namespace gpupower::core
