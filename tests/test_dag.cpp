// Campaign DAGs (core/dag/): parse-time validation names the offending
// node and path (cycles, unknown `$ref` nodes, nested dags, duplicate
// names); run-time `$ref` resolution errors name the node and missing
// path; a diamond's shared upstream is computed exactly once through the
// engine cache (counters pinned); the stats and pearson reduce ops equal
// the analysis functions on the same points; search nodes bisect
// deterministically and fail with pointed errors when the predicate cannot
// hold or the interval cannot close; and a dag run is bit-identical to
// the equivalent hand-sequenced submits, independent of worker count.
#include "core/dag/dag.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/correlation.hpp"
#include "analysis/stats.hpp"
#include "core/engine.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"

namespace gpupower::core {
namespace {

/// A cheap static run document; placeholder fields are overridden by
/// substitutions in the tests below.
std::string static_run(const std::string& pattern, int base_seed) {
  return std::string(R"__({"scenario": "static", "experiment": {)__"
                     R"__("gpu": "a100", "dtype": "fp16", "n": 64, )__"
                     R"__("seeds": 2, "base_seed": )__") +
         std::to_string(base_seed) + R"__(, "pattern": ")__" + pattern +
         R"__(", "sampling": {"tiles": 6, "k_fraction": 0.5}}})__";
}

/// A one-device fleet run document with a numeric power cap — the search
/// tests bisect over "cap_w" (avg_power_w is monotone in the cap).
std::string fleet_run(const std::string& cap_w) {
  return std::string(
             R"__({"scenario": "fleet", "experiment": {)__"
             R"__("gpu": "a100", "dtype": "fp16", "n": 64, "seeds": 2, )__"
             R"__("pattern": "gaussian(sigma=210) | sparsity(25%)", )__"
             R"__("sampling": {"tiles": 6, "k_fraction": 0.5}}, )__"
             R"__("timelines": )__"
             R"__(["burst(period=0.2, duty=30%, high=100%, low=5%, )__"
             R"__(dur=0.5)"], )__"
             R"__("devices": [{"gpu": "a100", )__"
             R"__("governor": "utilization(up=80%, down=30%)"}], )__"
             R"__("cap_w": )__") +
         cap_w + R"__(, "slice_s": 0.01, "pstates": 5})__";
}

std::string dag_text(const std::vector<std::string>& nodes) {
  std::string text = R"__({"scenario": "dag", "name": "t", "nodes": [)__";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) text += ", ";
    text += nodes[i];
  }
  return text + "]}";
}

SpecParseResult parse_text(const std::string& text) {
  return parse_scenario_spec_text(text);
}

// --- parse-time validation --------------------------------------------------

TEST(DagSpec, CycleFailsNamingANode) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "b.result.seeds"}]})__",
      std::string(R"__({"name": "b", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "a.result.seeds"}]})__",
  }));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("dependency cycle"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("'a'"), std::string::npos) << parsed.error;
}

TEST(DagSpec, UnknownRefNodeFailsNamingTheNode) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "oracle.result.power_w"}]})__",
  }));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("unknown node 'oracle'"), std::string::npos)
      << parsed.error;
}

TEST(DagSpec, DuplicateNodeNameFails) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 7) + "}",
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 8) + "}",
  }));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("duplicate node name 'a'"), std::string::npos)
      << parsed.error;
}

TEST(DagSpec, NestedDagInsideANodeIsRejected) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          dag_text({std::string(R"__({"name": "b", "run": )__") +
                    static_run("gaussian(sigma=210)", 7) + "}"}) +
          "}",
  }));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("nested dag specs are not supported"),
            std::string::npos)
      << parsed.error;
}

TEST(DagSpec, DagCannotBeACampaignBase) {
  const SpecParseResult parsed = parse_text(
      std::string(R"__({"scenario": "campaign", "base": )__") +
      dag_text({std::string(R"__({"name": "a", "run": )__") +
                static_run("gaussian(sigma=210)", 7) + "}"}) +
      R"__(, "axes": [{"field": "experiment.n", "values": [64]}]})__");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("cannot nest inside another spec's base"),
            std::string::npos)
      << parsed.error;
}

TEST(DagSpec, UnknownRefPathFailsAtRunTimeNamingNodeAndPath) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 42) + "}",
      std::string(R"__({"name": "b", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "a.result.nope_metric"}]})__",
  }));
  ASSERT_TRUE(parsed.ok) << parsed.error;  // path validity is run-time
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  EXPECT_FALSE(dag::run_dag(engine, *parsed.spec.dag, run, error));
  EXPECT_NE(error.find("node 'b'"), std::string::npos) << error;
  EXPECT_NE(error.find("has no value at 'nope_metric'"), std::string::npos)
      << error;
}

// --- diamond dedup ----------------------------------------------------------

// a -> {b, c} -> d: b and c patch the same `$ref` value into identical
// bases, so their configs collapse to one canonical key and the engine
// computes the pair exactly once.
TEST(DagRun, DiamondSharedUpstreamComputesOnce) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "a", "run": )__") +
          static_run("gaussian(sigma=210)", 42) + "}",
      std::string(R"__({"name": "b", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "a.result.seeds"}]})__",
      std::string(R"__({"name": "c", "run": )__") +
          static_run("gaussian(sigma=210)", 7) +
          R"__(, "substitutions": )__"
          R"__([{"field": "experiment.base_seed", )__"
          R"__("$ref": "a.result.seeds"}]})__",
      R"__({"name": "d", )__"
      R"__("reduce": {"op": "mean", "over": "b", "metric": "power_w"}})__",
  }));
  ASSERT_TRUE(parsed.ok) << parsed.error;

  ExperimentEngine engine(EngineOptions::with_workers(4));
  dag::DagRun run;
  std::string error;
  std::vector<std::string> finalized;
  ASSERT_TRUE(dag::run_dag(engine, *parsed.spec.dag, run, error,
                           [&](const dag::DagNodeRun& node) {
                             finalized.push_back(node.name);
                           }))
      << error;

  // Finalisation order is the declaration order — a pure function of the
  // graph, not of completion timing.
  EXPECT_EQ(finalized, (std::vector<std::string>{"a", "b", "c", "d"}));

  // b and c share one canonical key and one computed job; a is its own.
  ASSERT_EQ(run.nodes.size(), 4u);
  EXPECT_EQ(run.nodes[1].key, run.nodes[2].key);
  EXPECT_NE(run.nodes[0].key, run.nodes[1].key);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.jobs_computed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // Identical configs, identical bytes.
  ASSERT_EQ(run.nodes[1].points.size(), 1u);
  ASSERT_EQ(run.nodes[2].points.size(), 1u);
  EXPECT_EQ(scenario_result_to_json(run.nodes[1].points[0].result).dump(),
            scenario_result_to_json(run.nodes[2].points[0].result).dump());

  // The reduce folds b's one point.
  const analysis::JsonValue* value = run.nodes[3].doc.find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_DOUBLE_EQ(value->as_number(),
                   run.nodes[1].points[0].result.static_result().power_w);
}

// --- bit-identity vs hand-sequenced submits ---------------------------------

std::string grid_campaign_text() {
  return std::string(
             R"__({"scenario": "campaign", "name": "grid", "base": )__") +
         static_run("gaussian(sigma=210)", 42) +
         R"__(, "axes": [{"field": "experiment.pattern", "values": )__"
         R"__(["gaussian(sigma=210)", "gaussian(sigma=100)"]}]})__";
}

std::string provisioning_dag_text() {
  return dag_text({
      std::string(R"__({"name": "calibrate", "run": )__") +
          static_run("gaussian(sigma=210)", 42) + "}",
      std::string(R"__({"name": "grid", "run": )__") + grid_campaign_text() +
          "}",
      R"__({"name": "regret", "reduce": {"op": "regret", "over": "grid", )__"
      R"__("baseline": "calibrate", "metric": "power_w"}})__",
  });
}

void run_provisioning_dag(int workers, dag::DagRun& out) {
  const SpecParseResult parsed = parse_text(provisioning_dag_text());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(workers));
  std::string error;
  ASSERT_TRUE(dag::run_dag(engine, *parsed.spec.dag, out, error)) << error;
}

TEST(DagRun, BitIdenticalToHandSequencedSubmitsAcrossWorkerCounts) {
  dag::DagRun serial;
  dag::DagRun threaded;
  run_provisioning_dag(1, serial);
  run_provisioning_dag(4, threaded);
  if (HasFatalFailure()) return;

  // Hand-sequenced reference: the same documents submitted directly.
  ExperimentEngine engine(EngineOptions::with_workers(2));
  const SpecParseResult calibrate =
      parse_text(static_run("gaussian(sigma=210)", 42));
  ASSERT_TRUE(calibrate.ok) << calibrate.error;
  const ScenarioHandle calibrate_handle = engine.submit(calibrate.spec.config);
  const SpecParseResult grid = parse_text(grid_campaign_text());
  ASSERT_TRUE(grid.ok) << grid.error;
  CampaignRun reference;
  std::string error;
  ASSERT_TRUE(submit_campaign(engine, grid.spec, reference, error)) << error;
  engine.wait_all();

  for (const dag::DagRun* run : {&serial, &threaded}) {
    ASSERT_EQ(run->nodes.size(), 3u);
    ASSERT_EQ(run->nodes[0].points.size(), 1u);
    EXPECT_EQ(scenario_result_to_json(run->nodes[0].points[0].result).dump(),
              scenario_result_to_json(calibrate_handle.get()).dump());
    ASSERT_EQ(run->nodes[1].points.size(), reference.points.size());
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      EXPECT_EQ(run->nodes[1].points[i].label, reference.points[i].label);
      EXPECT_EQ(
          scenario_result_to_json(run->nodes[1].points[i].result).dump(),
          scenario_result_to_json(reference.handles[i].get()).dump());
    }
  }
  // The whole run — including the derived reduce document — is
  // byte-stable under worker-count variation.
  for (std::size_t n = 0; n < serial.nodes.size(); ++n) {
    EXPECT_EQ(serial.nodes[n].doc.dump(), threaded.nodes[n].doc.dump());
    EXPECT_EQ(serial.nodes[n].key, threaded.nodes[n].key);
  }
}

// --- stats and pearson reduce ops ------------------------------------------

std::string three_point_campaign_text() {
  return std::string(
             R"__({"scenario": "campaign", "name": "grid", "base": )__") +
         static_run("gaussian(sigma=210)", 42) +
         R"__(, "axes": [{"field": "experiment.pattern", "values": )__"
         R"__(["gaussian(sigma=210)", "gaussian(sigma=4)", )__"
         R"__("gaussian(sigma=210) | sparsity(50%)"]}]})__";
}

TEST(DagReduce, StatsAndPearsonMatchTheAnalysisFunctions) {
  const SpecParseResult parsed = parse_text(dag_text({
      std::string(R"__({"name": "grid", "run": )__") +
          three_point_campaign_text() + "}",
      R"__({"name": "runtime", "reduce": {"op": "stats", "over": "grid", )__"
      R"__("metric": "power_w"}})__",
      R"__({"name": "corr", "reduce": {"op": "pearson", "over": "grid", )__"
      R"__("metric": "power_w", "against": "alignment"}})__",
  }));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  ASSERT_TRUE(dag::run_dag(engine, *parsed.spec.dag, run, error)) << error;

  std::vector<double> power;
  std::vector<double> alignment;
  analysis::RunningStats stats;
  for (const dag::DagNodePoint& point : run.nodes[0].points) {
    power.push_back(point.result.static_result().power_w);
    alignment.push_back(point.result.static_result().alignment);
    stats.add(power.back());
  }
  ASSERT_EQ(power.size(), 3u);
  const analysis::JsonValue& summary = run.nodes[1].doc;
  const auto number = [](const analysis::JsonValue& doc, const char* key) {
    const analysis::JsonValue* v = doc.find(key);
    EXPECT_NE(v, nullptr) << key;
    return v != nullptr ? v->as_number() : -1.0;
  };
  EXPECT_EQ(number(summary, "value"), stats.mean());
  EXPECT_EQ(number(summary, "sd"), stats.stddev());
  EXPECT_EQ(number(summary, "ci95_halfwidth"), stats.ci95_halfwidth());
  EXPECT_EQ(number(summary, "min"), stats.min());
  EXPECT_EQ(number(summary, "max"), stats.max());
  EXPECT_EQ(number(summary, "n"), 3.0);
  EXPECT_GT(number(summary, "sd"), 0.0);

  const analysis::JsonValue& corr = run.nodes[2].doc;
  EXPECT_EQ(number(corr, "value"), analysis::pearson(alignment, power));
  EXPECT_EQ(number(corr, "spearman"), analysis::spearman(alignment, power));
  ASSERT_NE(corr.find("against"), nullptr);
  EXPECT_EQ(corr.find("against")->as_string(), "alignment");
  const analysis::JsonValue* points = corr.find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(number(points->at(i), "value"), power[i]);
    EXPECT_EQ(number(points->at(i), "against_value"), alignment[i]);
  }
  EXPECT_NE(run.nodes[1].key, run.nodes[2].key);
}

std::string reduce_dag_text(const std::string& reduce_body) {
  return dag_text({
      std::string(R"__({"name": "grid", "run": )__") +
          three_point_campaign_text() + "}",
      R"__({"name": "r", "reduce": {"over": "grid", )__" + reduce_body + "}}",
  });
}

TEST(DagReduce, ParseErrorsNameTheKey) {
  struct Case {
    const char* body;
    const char* key;
    const char* message;
  };
  const Case cases[] = {
      {R"__("op": "pearson", "metric": "power_w")__", "reduce.against",
       "required for op 'pearson'"},
      {R"__("op": "pearson", "metric": "power_w", "against": "")__",
       "reduce.against", "must not be empty"},
      {R"__("op": "stats", "metric": "power_w", "against": "alignment")__",
       "reduce.against", "only meaningful for op 'pearson'"},
      {R"__("op": "mean", "metric": "power_w", "against": "alignment")__",
       "reduce.against", "only meaningful for op 'pearson'"},
      {R"__("op": "median", "metric": "power_w")__", "reduce.op",
       "stats | pearson"},
      {R"__("op": "stats", "metric": "")__", "reduce.metric",
       "must not be empty"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    const SpecParseResult parsed = parse_text(reduce_dag_text(c.body));
    ASSERT_FALSE(parsed.ok);
    EXPECT_NE(parsed.error.find(std::string("nodes[1] 'r'.") + c.key),
              std::string::npos)
        << parsed.error;
    EXPECT_NE(parsed.error.find(c.message), std::string::npos)
        << parsed.error;
  }
}

// --- search nodes -----------------------------------------------------------

double uncapped_avg_power() {
  const SpecParseResult parsed = parse_text(fleet_run("10000"));
  EXPECT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  const ScenarioHandle handle = engine.submit(parsed.spec.config);
  return handle.get().fleet().avg_power_w;
}

std::string search_dag_text(const std::string& target,
                            const std::string& tolerance,
                            const std::string& max_iterations) {
  return dag_text({
      std::string(R"__({"name": "tightest", "search": {"base": )__") +
          fleet_run("10000") +
          R"__(, "field": "cap_w", "lo": 1, "hi": 10000, )__"
          R"__("metric": "avg_power_w", "predicate": ">=", "target": )__" +
          target + R"__(, "tolerance": )__" + tolerance +
          R"__(, "max_iterations": )__" + max_iterations + "}}",
  });
}

TEST(DagSearch, ConvergesToTheTightestCapDeterministically) {
  const double target = 0.95 * uncapped_avg_power();
  const SpecParseResult parsed =
      parse_text(search_dag_text(std::to_string(target), "500", "32"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  dag::DagRun serial;
  dag::DagRun threaded;
  const auto execute = [&](int workers, dag::DagRun& out) {
    ExperimentEngine engine(EngineOptions::with_workers(workers));
    std::string error;
    ASSERT_TRUE(dag::run_dag(engine, *parsed.spec.dag, out, error)) << error;
  };
  execute(1, serial);
  execute(4, threaded);
  if (HasFatalFailure()) return;

  ASSERT_EQ(serial.nodes.size(), 1u);
  const analysis::JsonValue* value = serial.nodes[0].doc.find("value");
  ASSERT_NE(value, nullptr);
  EXPECT_GE(value->as_number(), 1.0);
  EXPECT_LE(value->as_number(), 10000.0);
  // The accepted point satisfies the predicate.
  const analysis::JsonValue* result = serial.nodes[0].doc.find("result");
  ASSERT_NE(result, nullptr);
  const analysis::JsonValue* metric = result->find("avg_power_w");
  ASSERT_NE(metric, nullptr);
  EXPECT_GE(metric->as_number(), target);
  // Deterministic bisection: identical bytes under worker variation.
  EXPECT_EQ(serial.nodes[0].doc.dump(), threaded.nodes[0].doc.dump());
  EXPECT_EQ(serial.nodes[0].key, threaded.nodes[0].key);
}

TEST(DagSearch, FailsWhenThePredicateDoesNotHoldAtHi) {
  const SpecParseResult parsed =
      parse_text(search_dag_text("1e9", "500", "32"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  EXPECT_FALSE(dag::run_dag(engine, *parsed.spec.dag, run, error));
  EXPECT_NE(error.find("node 'tightest'"), std::string::npos) << error;
  EXPECT_NE(error.find("does not hold at hi"), std::string::npos) << error;
}

TEST(DagSearch, ReportsNonConvergenceAtTheIterationCap) {
  const double target = 0.95 * uncapped_avg_power();
  const SpecParseResult parsed =
      parse_text(search_dag_text(std::to_string(target), "0.001", "1"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExperimentEngine engine(EngineOptions::with_workers(2));
  dag::DagRun run;
  std::string error;
  EXPECT_FALSE(dag::run_dag(engine, *parsed.spec.dag, run, error));
  EXPECT_NE(error.find("did not converge within 1 iterations"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace gpupower::core
