// Campaign DAGs: dependent-scenario graphs run as one study.  A dag spec
// is a set of named nodes; each node either *runs* a scenario/campaign
// document, *reduces* another node's per-point metrics, or *searches* one
// dotted field by deterministic bisection until a predicate on a result
// metric holds.  Nodes reference upstream results with
// `"$ref": "node_name.result.dotted.path"` substitutions — the same
// dotted-path patch machinery campaign axes use, pointed at a finished
// node's result document instead of a literal value.
//
// Spec shape:
//
//   { "scenario": "dag",
//     "name": "provisioning",
//     "nodes": [
//       { "name": "calibrate",
//         "run": { "scenario": "static", "experiment": {...} } },
//       { "name": "capped",
//         "run": { "scenario": "fleet", ..., "cap_w": 0 },
//         "substitutions": [
//           {"field": "cap_w", "$ref": "calibrate.result.power_w"} ] },
//       { "name": "sweep",
//         "run": { "scenario": "campaign", "base": {...}, "axes": [...] } },
//       { "name": "regret",
//         "reduce": { "op": "regret", "over": "sweep",
//                     "baseline": "calibrate", "metric": "power_w" } },
//       { "name": "tightest_cap",
//         "search": { "base": { "scenario": "fleet", ... },
//                     "field": "cap_w", "lo": 60, "hi": 400,
//                     "metric": "backlog_p99_s", "predicate": "<=",
//                     "target": 0.05, "tolerance": 1.0 } } ] }
//
// Each run/search base document must parse stand-alone (substitutions
// override fields that already carry placeholder values — the same
// contract campaign axes have with their base).  A node's result document
// — the `$ref` resolution surface — is:
//
//   run (single)  the scenario_result_to_json document
//   run (campaign)  {"points": [{"label": ..., "result": <doc>}, ...]}
//                   (refs may index arrays numerically: "points.0.result.x")
//   reduce        {"op", "over", "metric", "value",
//                  "points": [{"label", "value"}, ...]}; stats adds
//                  "sd", "ci95_halfwidth", "min", "max", "n"; pearson
//                  adds "against", "spearman" and each point's
//                  "against_value"
//   search        {"field", "value", "iterations", "result": <doc of the
//                  accepted point>}
//
// Validation is strict and parse-time wherever possible: unknown keys,
// duplicate node names, `$ref`s naming unknown nodes, and dependency
// cycles all fail with an error naming the offending node and path.
// Execution schedules ready nodes onto the engine worker pool in a
// deterministic topological order (declaration order breaks ties), so a
// dag run is bit-identical to the equivalent hand-sequenced submits and
// shared upstream points dedup through the memory cache and result store
// by canonical key.  `dag.schedule` / `dag.node` obs spans carry the node
// name and canonical key for per-node trace attribution.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/json.hpp"
#include "core/engine.hpp"
#include "core/scenario.hpp"

namespace gpupower::core::dag {

/// A parsed `"$ref": "node.result.dotted.path"` reference.
struct DagRef {
  std::string raw;        ///< the full ref text, for error messages
  std::size_t node = 0;   ///< upstream node index
  std::string path;       ///< path inside the node's result document
};

/// One substitution: patch `field` (dotted path into the node's own
/// document) with the value the ref resolves to at run time.
struct DagSubstitution {
  std::string field;
  DagRef ref;
};

enum class DagNodeKind { kScenario, kCampaign, kReduce, kSearch };

[[nodiscard]] std::string_view name(DagNodeKind kind);

/// A reduce node: fold one metric across an upstream node's points.
/// op "regret" subtracts the baseline node's metric from every point and
/// reports the worst (max) regret as the aggregate value; min | max |
/// mean | sum fold the points directly (no baseline).  "stats" reports
/// the mean as the value with sd, ci95_halfwidth, min, max and n beside
/// it (analysis::RunningStats); "pearson" correlates the metric with a
/// second path, `against`, over the same points: the value is
/// analysis::pearson(against, metric), with the spearman rank
/// correlation beside it.
struct DagReduce {
  std::string op;
  std::size_t over = 0;      ///< node index whose points are folded
  std::size_t baseline = 0;  ///< single-scenario node (regret only)
  bool has_baseline = false;
  std::string metric;   ///< dotted path into each point's result document
  std::string against;  ///< second dotted path (pearson only)
};

/// A search node: deterministic bisection over one dotted field of a
/// single-scenario base document until `metric predicate target` holds,
/// reporting the tightest satisfying value.  The predicate must hold at
/// `hi` (else the search fails immediately, naming the node); bisection
/// narrows [lo, hi] until the interval is within `tolerance`, bounded by
/// `max_iterations` mid evaluations.
struct DagSearch {
  analysis::JsonValue base;
  std::string field;
  double lo = 0.0;
  double hi = 0.0;
  std::string metric;
  std::string predicate;  ///< "<=" or ">="
  double target = 0.0;
  double tolerance = 0.0;
  int max_iterations = 48;
  std::vector<DagSubstitution> substitutions;
};

struct DagNode {
  std::string name;
  DagNodeKind kind = DagNodeKind::kScenario;
  analysis::JsonValue run;  ///< scenario/campaign document (run nodes)
  std::vector<DagSubstitution> substitutions;  ///< run nodes only
  DagReduce reduce;
  DagSearch search;
  std::vector<std::size_t> deps;  ///< sorted unique upstream node indices
};

struct DagSpec {
  std::string name;
  std::vector<DagNode> nodes;      ///< declaration order
  std::vector<std::size_t> order;  ///< deterministic ready-node schedule
};

/// Parses a `"scenario": "dag"` document.  Returns false with `error`
/// naming the offending node/key (e.g. "nodes[2] 'sweep': $ref
/// 'oracle.result.energy_j' references unknown node 'oracle'").
[[nodiscard]] bool parse_dag(const analysis::JsonValue& doc, DagSpec& out,
                             std::string& error);

/// One executed point of a node (a single-scenario node has exactly one;
/// campaign nodes one per grid point; search nodes one per evaluation in
/// evaluation order; reduce nodes none).
struct DagNodePoint {
  std::string label;
  ScenarioConfig config;
  ExperimentEngine::SubmitOutcome outcome =
      ExperimentEngine::SubmitOutcome::kComputed;
  ScenarioResult result;
};

/// A finished node: its points, canonical attribution key, and the result
/// document downstream `$ref`s resolved against.
struct DagNodeRun {
  std::string name;
  DagNodeKind kind = DagNodeKind::kScenario;
  std::string key;  ///< canonical scenario key (synthetic for reduce)
  std::vector<DagNodePoint> points;
  analysis::JsonValue doc;  ///< the node's result document
};

/// A finished dag run, nodes in declaration order.
struct DagRun {
  std::vector<DagNodeRun> nodes;
};

/// Invoked once per node as it finalises (deterministic order: a function
/// of the graph structure alone, independent of worker count).
using DagNodeCallback = std::function<void(const DagNodeRun&)>;

/// Executes the dag: schedules ready run-nodes onto the engine in `order`
/// as their dependencies retire, resolves `$ref` substitutions against
/// finished nodes, and runs reduce/search nodes inline.  Returns false
/// with `error` naming the node on unresolvable refs, failed re-parses,
/// or non-convergent searches.  Engine worker exceptions propagate.
[[nodiscard]] bool run_dag(ExperimentEngine& engine, const DagSpec& spec,
                           DagRun& out, std::string& error,
                           const DagNodeCallback& on_node = {});

}  // namespace gpupower::core::dag
