// Declarative JSON scenario specs: the file format that drives the whole
// simulator without writing C++.  A spec names a scenario kind and its
// fields; `gpowerctl run <spec.json>` (and any code calling
// parse_scenario_spec + ExperimentEngine::submit) executes it.  The
// `campaign` form grid-sweeps *arbitrary* named fields — cap level x
// allocator, governor threshold x dtype, seeds, ... — and fans the
// cross-product through the engine as one deduplicated batch; a "figure"
// axis makes it a paper figure sweep.
//
// Single-scenario shape (every field optional unless noted; unknown keys
// are rejected with an error naming the key):
//
//   { "scenario": "dvfs",                  // "static" | "dvfs" | "fleet"
//     "experiment": {
//       "gpu": "a100",                     // a100 | h100 | v100 | rtx6000
//       "dtype": "fp16t", "n": 512, "seeds": 2,
//       "pattern": "gaussian(sigma=210) | sparsity(25%)",
//       "sampling": {"tiles": 12, "k_fraction": 0.5},
//       "base_seed": 42, "iterations": 0 },
//     "governor": "utilization(up=80%, down=30%)",   // DSL or object form
//     "timeline": "burst(period=0.2, duty=30%, dur=2)",   // required (dvfs)
//     "phase_patterns": ["gaussian(sigma=100)"],
//     "slice_s": 0.01, "pstates": 5 }
//
// Fleet adds "timelines": [...], "devices": [{"gpu", "governor",
// "timeline", "priority"}], "staggered": {"timeline", "count",
// "stagger_s", "gpu", "governor"}, "allocator", "cap_w" (null =
// uncapped), and "thermal": {...}.
//
// Campaign shape:
//
//   { "scenario": "campaign",
//     "name": "fleet_capping",             // bench-document name
//     "protocol": "...",                   // copied verbatim to bench docs
//     "base": { ...any single-scenario spec... },
//     "axes": [
//       {"field": "allocator", "values": ["uniform", "proportional"]},
//       {"field": "cap_w", "values": [{"value": 415.2, "label": "0.50"}]},
//       {"field": "experiment.pattern", "figure": "fig6a"} ] }
//
// Axis `field` is a dotted path into the base document; each grid point
// patches the fields, re-parses, and submits.  A "figure" axis expands to
// the named paper figure's sweep points (pattern DSL values + labels).
//
// A fourth form, `"scenario": "dag"`, chains dependent scenarios and
// campaigns into one study graph with `$ref` result substitutions — see
// core/dag/dag.hpp for the node grammar.  parse_scenario_spec fills
// ScenarioSpec::dag for that form.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/json.hpp"
#include "core/engine.hpp"
#include "core/scenario.hpp"

namespace gpupower::core {

namespace dag {
struct DagSpec;
}  // namespace dag

/// One campaign axis value: the JSON payload patched into the base
/// document plus its display label (campaign point labels join axis labels
/// with '@').
struct CampaignAxisValue {
  analysis::JsonValue value;
  std::string label;
};

struct CampaignAxis {
  std::string field;  ///< dotted path into the base spec document
  std::vector<CampaignAxisValue> values;
};

/// A parsed spec: one scenario (config), a campaign grid (base document +
/// axes, expanded by expand_campaign), or a dag study (dag != nullptr,
/// executed by dag::run_dag).
struct ScenarioSpec {
  bool campaign = false;
  std::string name;      ///< campaign/dag name (bench documents); may be empty
  std::string protocol;  ///< campaign protocol string for bench documents
  ScenarioConfig config;
  analysis::JsonValue base;
  std::vector<CampaignAxis> axes;
  std::shared_ptr<const dag::DagSpec> dag;  ///< set for the "dag" form
};

struct SpecParseResult {
  bool ok = false;
  ScenarioSpec spec;
  /// Names the offending key (dotted path) when !ok, e.g.
  /// "experiment.dtype: unknown dtype 'f16'".
  std::string error;
};

/// Parses a spec document.  Strict: unknown keys, wrong JSON kinds, bad
/// DSL, and dangling cross-references all fail with a pointed error.
[[nodiscard]] SpecParseResult parse_scenario_spec(
    const analysis::JsonValue& doc);

/// json_parse + parse_scenario_spec (JSON syntax errors carry the byte
/// offset).
[[nodiscard]] SpecParseResult parse_scenario_spec_text(
    std::string_view json_text);

/// Reads and parses a spec file.
[[nodiscard]] SpecParseResult load_scenario_spec(const std::string& path);

/// Serialises any ScenarioConfig to its single-scenario spec document — the
/// one serialisation of a scenario (canonical_scenario_key is its
/// normalised compact dump).  Exact: parse_scenario_spec(spec_to_json(c))
/// yields a config with an identical canonical key (numbers are emitted at
/// full round-trip precision) — the migration path from hand-built configs
/// to spec files.
[[nodiscard]] analysis::JsonValue spec_to_json(const ScenarioConfig& config);

/// One expanded campaign grid point.
struct CampaignPoint {
  std::string label;  ///< axis value labels joined with '@'
  std::vector<std::pair<std::string, std::string>> coords;  ///< field, label
  ScenarioConfig config;
};

/// Expands the cross product of a campaign's axes over its base document
/// (row-major: the first axis varies slowest).  Returns false with `error`
/// naming the offending axis/key; `out` is cleared first.
[[nodiscard]] bool expand_campaign(const ScenarioSpec& spec,
                                   std::vector<CampaignPoint>& out,
                                   std::string& error);

/// An expanded campaign in flight: handles are index-aligned with points,
/// and so are outcomes — how each point's submit was satisfied (computed /
/// cache hit / store hit), for callers doing per-client attribution
/// (serve's per-session counters).
struct CampaignRun {
  std::vector<CampaignPoint> points;
  std::vector<ScenarioHandle> handles;
  std::vector<ExperimentEngine::SubmitOutcome> outcomes;
};

/// expand_campaign + one engine submission per point (duplicates attach to
/// cached jobs) — the shared driver behind `gpowerctl run`, the campaign
/// benches, and the examples.  Submission is non-blocking; call
/// engine.wait_all() or block on the handles.  Returns false with `error`
/// on expansion failure.
[[nodiscard]] bool submit_campaign(ExperimentEngine& engine,
                                   const ScenarioSpec& spec, CampaignRun& out,
                                   std::string& error);

namespace detail {
/// The dotted-path document patch campaign axes expand with, shared with
/// dag `$ref` substitutions: sets `path` inside `doc` to `leaf`, in place
/// (missing intermediate objects are created; an existing non-object on
/// the path fails with `error` naming the segment).
[[nodiscard]] bool patch_spec_path(analysis::JsonValue& doc,
                                   std::string_view path,
                                   const analysis::JsonValue& leaf,
                                   std::string& error);

/// The strict field readers behind the spec and dag parsers.  Each
/// failure records "<path>: <message>" into the context (the first failure
/// wins) and returns false, so a caller just returns the result.
struct SpecCtx {
  std::string error;
  bool fail(std::string_view path, std::string_view message);
};

/// Rejects any key of `obj` outside `allowed`, naming it and listing the
/// expected keys; an empty `path` reports as "spec".
bool check_keys(const analysis::JsonValue& obj, std::string_view path,
                std::initializer_list<std::string_view> allowed, SpecCtx& ctx);
/// `v` may be null (a missing member): that fails like a wrong kind.
bool read_string(const analysis::JsonValue* v, std::string_view path,
                 SpecCtx& ctx, std::string& out);
bool read_number(const analysis::JsonValue* v, std::string_view path,
                 SpecCtx& ctx, double& out);
}  // namespace detail

}  // namespace gpupower::core
