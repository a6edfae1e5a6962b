#include "core/dag/dag.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/correlation.hpp"
#include "analysis/stats.hpp"
#include "core/obs/obs.hpp"
#include "core/spec.hpp"
#include "gpusim/dvfs/dsl_util.hpp"

namespace gpupower::core::dag {
namespace {

using analysis::JsonValue;
using gpupower::gpusim::dvfs::detail::format_exact;

/// Node-count guard: a dag bigger than this is a generator bug, not a
/// study (each node can itself be a 4096-point campaign).
constexpr std::size_t kMaxDagNodes = 256;
constexpr int kMaxSearchIterations = 64;

using detail::check_keys;
using detail::read_number;
using detail::read_string;
using Ctx = detail::SpecCtx;

std::string node_where(std::size_t index, std::string_view name) {
  std::string where = "nodes[" + std::to_string(index) + "]";
  if (!name.empty()) {
    where += " '";
    where += name;
    where += "'";
  }
  return where;
}

/// Walks a dotted path through a result document; segments index arrays
/// numerically ("points.0.result.power_w").  Returns nullptr when any
/// segment is missing, leaving `missing` naming the unreachable prefix.
const JsonValue* get_path(const JsonValue& doc, std::string_view path,
                          std::string& missing) {
  const JsonValue* cur = &doc;
  std::size_t pos = 0;
  std::string walked;
  for (;;) {
    const std::size_t dot = path.find('.', pos);
    const std::string_view seg = path.substr(
        pos, (dot == std::string_view::npos ? path.size() : dot) - pos);
    if (!walked.empty()) walked += '.';
    walked += seg;
    if (seg.empty()) {
      missing = walked;
      return nullptr;
    }
    if (cur->is_array()) {
      std::size_t index = 0;
      bool numeric = true;
      for (const char c : seg) {
        if (c < '0' || c > '9') {
          numeric = false;
          break;
        }
        index = index * 10 + static_cast<std::size_t>(c - '0');
      }
      if (!numeric || index >= cur->size()) {
        missing = walked;
        return nullptr;
      }
      cur = &cur->at(index);
    } else if (cur->is_object()) {
      cur = cur->find(seg);
      if (cur == nullptr) {
        missing = walked;
        return nullptr;
      }
    } else {
      missing = walked;
      return nullptr;
    }
    if (dot == std::string_view::npos) return cur;
    pos = dot + 1;
  }
}

// --- parsing ----------------------------------------------------------------

/// Shallow pre-pass classification so refs and reduce targets can be
/// validated against nodes declared later in the array.
struct NodeSketch {
  std::string name;
  DagNodeKind kind = DagNodeKind::kScenario;
};

bool parse_ref(const JsonValue* v, std::string_view where, Ctx& ctx,
               const std::vector<NodeSketch>& sketches, std::size_t self,
               DagRef& out) {
  std::string text;
  if (!read_string(v, where, ctx, text)) return false;
  out.raw = text;
  const std::string quoted = "$ref '" + text + "'";
  const std::size_t first = text.find('.');
  if (first == std::string_view::npos) {
    return ctx.fail(where,
                    quoted + " must be 'node_name.result.dotted.path'");
  }
  const std::string node_name = text.substr(0, first);
  const std::size_t second = text.find('.', first + 1);
  const std::string result_seg =
      text.substr(first + 1, (second == std::string_view::npos
                                  ? text.size()
                                  : second) -
                                 first - 1);
  if (node_name.empty() || result_seg != "result" ||
      second == std::string_view::npos || second + 1 >= text.size()) {
    return ctx.fail(where,
                    quoted + " must be 'node_name.result.dotted.path'");
  }
  out.path = text.substr(second + 1);
  bool found = false;
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    if (sketches[i].name == node_name) {
      out.node = i;
      found = true;
      break;
    }
  }
  if (!found) {
    return ctx.fail(where,
                    quoted + " references unknown node '" + node_name + "'");
  }
  if (out.node == self) {
    return ctx.fail(where, quoted + " references the node itself");
  }
  return true;
}

bool parse_substitutions(const JsonValue* v, std::string_view where, Ctx& ctx,
                         const std::vector<NodeSketch>& sketches,
                         std::size_t self,
                         std::vector<DagSubstitution>& out) {
  if (v == nullptr) return true;
  if (!v->is_array()) {
    return ctx.fail(where, "expected an array of substitution objects");
  }
  for (std::size_t i = 0; i < v->size(); ++i) {
    const std::string entry_where =
        std::string(where) + "[" + std::to_string(i) + "]";
    const JsonValue& entry = v->at(i);
    if (!entry.is_object()) {
      return ctx.fail(entry_where, "expected an object");
    }
    if (!check_keys(entry, entry_where, {"field", "$ref"}, ctx)) return false;
    DagSubstitution sub;
    if (!read_string(entry.find("field"), entry_where + ".field", ctx,
                     sub.field)) {
      return false;
    }
    if (sub.field.empty()) {
      return ctx.fail(entry_where + ".field", "must not be empty");
    }
    if (sub.field == "scenario") {
      return ctx.fail(entry_where + ".field",
                      "a substitution cannot patch the scenario kind");
    }
    if (!parse_ref(entry.find("$ref"), entry_where + ".$ref", ctx, sketches,
                   self, sub.ref)) {
      return false;
    }
    out.push_back(std::move(sub));
  }
  return true;
}

/// Run-node documents (and search bases) must parse stand-alone, the same
/// contract campaign bases have: substitutions override fields that
/// already hold valid placeholder values.
bool validate_run_doc(const JsonValue& doc, std::string_view where, Ctx& ctx,
                      bool allow_campaign, DagNodeKind& kind_out) {
  if (!doc.is_object()) return ctx.fail(where, "expected a spec object");
  const JsonValue* scenario = doc.find("scenario");
  if (scenario != nullptr && scenario->is_string() &&
      scenario->as_string() == "dag") {
    return ctx.fail(where, "nested dag specs are not supported");
  }
  const SpecParseResult parsed = parse_scenario_spec(doc);
  if (!parsed.ok) return ctx.fail(where, parsed.error);
  if (parsed.spec.campaign) {
    if (!allow_campaign) {
      return ctx.fail(where, "must be a single-scenario spec (not a campaign)");
    }
    kind_out = DagNodeKind::kCampaign;
  } else {
    kind_out = DagNodeKind::kScenario;
  }
  return true;
}

bool parse_reduce(const JsonValue& v, std::string_view where, Ctx& ctx,
                  const std::vector<NodeSketch>& sketches, std::size_t self,
                  DagReduce& out) {
  if (!v.is_object()) return ctx.fail(where, "expected an object");
  if (!check_keys(v, where, {"op", "over", "baseline", "metric", "against"},
                  ctx)) {
    return false;
  }
  if (!read_string(v.find("op"), std::string(where) + ".op", ctx, out.op)) {
    return false;
  }
  if (out.op != "regret" && out.op != "min" && out.op != "max" &&
      out.op != "mean" && out.op != "sum" && out.op != "stats" &&
      out.op != "pearson") {
    return ctx.fail(std::string(where) + ".op",
                    "unknown op '" + out.op +
                        "' (expected regret | min | max | mean | sum | "
                        "stats | pearson)");
  }
  std::string over_name;
  if (!read_string(v.find("over"), std::string(where) + ".over", ctx,
                   over_name)) {
    return false;
  }
  bool found = false;
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    if (sketches[i].name == over_name) {
      out.over = i;
      found = true;
      break;
    }
  }
  if (!found) {
    return ctx.fail(std::string(where) + ".over",
                    "references unknown node '" + over_name + "'");
  }
  if (out.over == self) {
    return ctx.fail(std::string(where) + ".over",
                    "references the node itself");
  }
  if (sketches[out.over].kind != DagNodeKind::kScenario &&
      sketches[out.over].kind != DagNodeKind::kCampaign) {
    return ctx.fail(std::string(where) + ".over",
                    "node '" + over_name + "' is not a run node");
  }
  if (const JsonValue* baseline = v.find("baseline")) {
    if (out.op != "regret") {
      return ctx.fail(std::string(where) + ".baseline",
                      "only meaningful for op 'regret'");
    }
    std::string baseline_name;
    if (!read_string(baseline, std::string(where) + ".baseline", ctx,
                     baseline_name)) {
      return false;
    }
    found = false;
    for (std::size_t i = 0; i < sketches.size(); ++i) {
      if (sketches[i].name == baseline_name) {
        out.baseline = i;
        found = true;
        break;
      }
    }
    if (!found) {
      return ctx.fail(std::string(where) + ".baseline",
                      "references unknown node '" + baseline_name + "'");
    }
    if (out.baseline == self) {
      return ctx.fail(std::string(where) + ".baseline",
                      "references the node itself");
    }
    if (sketches[out.baseline].kind != DagNodeKind::kScenario) {
      return ctx.fail(std::string(where) + ".baseline",
                      "node '" + baseline_name +
                          "' is not a single-scenario run node");
    }
    out.has_baseline = true;
  } else if (out.op == "regret") {
    return ctx.fail(std::string(where) + ".baseline",
                    "required for op 'regret' (the oracle node)");
  }
  if (!read_string(v.find("metric"), std::string(where) + ".metric", ctx,
                   out.metric)) {
    return false;
  }
  if (out.metric.empty()) {
    return ctx.fail(std::string(where) + ".metric", "must not be empty");
  }
  if (const JsonValue* against = v.find("against")) {
    if (out.op != "pearson") {
      return ctx.fail(std::string(where) + ".against",
                      "only meaningful for op 'pearson'");
    }
    if (!read_string(against, std::string(where) + ".against", ctx,
                     out.against)) {
      return false;
    }
    if (out.against.empty()) {
      return ctx.fail(std::string(where) + ".against", "must not be empty");
    }
  } else if (out.op == "pearson") {
    return ctx.fail(std::string(where) + ".against",
                    "required for op 'pearson' (the second metric path)");
  }
  return true;
}

bool parse_search(const JsonValue& v, std::string_view where, Ctx& ctx,
                  const std::vector<NodeSketch>& sketches, std::size_t self,
                  DagSearch& out) {
  if (!v.is_object()) return ctx.fail(where, "expected an object");
  if (!check_keys(v, where,
                  {"base", "field", "lo", "hi", "metric", "predicate",
                   "target", "tolerance", "max_iterations", "substitutions"},
                  ctx)) {
    return false;
  }
  const JsonValue* base = v.find("base");
  if (base == nullptr) {
    return ctx.fail(std::string(where) + ".base",
                    "required (the single-scenario spec to bisect)");
  }
  DagNodeKind base_kind;
  if (!validate_run_doc(*base, std::string(where) + ".base", ctx,
                        /*allow_campaign=*/false, base_kind)) {
    return false;
  }
  out.base = *base;
  if (!read_string(v.find("field"), std::string(where) + ".field", ctx,
                   out.field)) {
    return false;
  }
  if (out.field.empty() || out.field == "scenario") {
    return ctx.fail(std::string(where) + ".field",
                    "must be a dotted numeric field of the base spec");
  }
  if (!read_number(v.find("lo"), std::string(where) + ".lo", ctx, out.lo)) {
    return false;
  }
  if (!read_number(v.find("hi"), std::string(where) + ".hi", ctx, out.hi)) {
    return false;
  }
  if (!(out.lo < out.hi)) {
    return ctx.fail(std::string(where) + ".lo", "must be < hi");
  }
  if (!read_string(v.find("metric"), std::string(where) + ".metric", ctx,
                   out.metric)) {
    return false;
  }
  if (out.metric.empty()) {
    return ctx.fail(std::string(where) + ".metric", "must not be empty");
  }
  if (!read_string(v.find("predicate"), std::string(where) + ".predicate",
                   ctx, out.predicate)) {
    return false;
  }
  if (out.predicate != "<=" && out.predicate != ">=") {
    return ctx.fail(std::string(where) + ".predicate",
                    "unknown predicate '" + out.predicate +
                        "' (expected <= | >=)");
  }
  if (!read_number(v.find("target"), std::string(where) + ".target", ctx,
                   out.target)) {
    return false;
  }
  if (!read_number(v.find("tolerance"), std::string(where) + ".tolerance",
                   ctx, out.tolerance)) {
    return false;
  }
  if (!(out.tolerance > 0.0)) {
    return ctx.fail(std::string(where) + ".tolerance",
                    "must be a positive interval width");
  }
  if (const JsonValue* iterations = v.find("max_iterations")) {
    double value = 0.0;
    if (!read_number(iterations, std::string(where) + ".max_iterations", ctx,
                     value)) {
      return false;
    }
    if (value < 1.0 || value > static_cast<double>(kMaxSearchIterations) ||
        value != static_cast<double>(static_cast<int>(value))) {
      return ctx.fail(std::string(where) + ".max_iterations",
                      "expected an integer in [1, " +
                          std::to_string(kMaxSearchIterations) + "]");
    }
    out.max_iterations = static_cast<int>(value);
  }
  if (!parse_substitutions(v.find("substitutions"),
                           std::string(where) + ".substitutions", ctx,
                           sketches, self, out.substitutions)) {
    return false;
  }
  return true;
}

/// Deterministic topological order: repeatedly take the lowest-index node
/// whose dependencies are all scheduled (Kahn with declaration-order
/// tie-break).  Returns false naming a node on the cycle.
bool topo_order(const std::vector<DagNode>& nodes,
                std::vector<std::size_t>& order, Ctx& ctx) {
  order.clear();
  std::vector<bool> done(nodes.size(), false);
  while (order.size() < nodes.size()) {
    bool progressed = false;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (done[i]) continue;
      bool ready = true;
      for (const std::size_t dep : nodes[i].deps) {
        if (!done[dep]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      done[i] = true;
      order.push_back(i);
      progressed = true;
    }
    if (!progressed) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!done[i]) {
          return ctx.fail(node_where(i, nodes[i].name),
                          "part of a dependency cycle");
        }
      }
    }
  }
  return true;
}

/// The scalar folds: mean | sum | min | max, and regret reports the worst
/// (max) regret.
double fold(std::string_view op, const std::vector<double>& values) {
  double aggregate = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (op == "mean" || op == "sum") {
      aggregate += values[i];
    } else if (i == 0) {
      aggregate = values[i];
    } else if (op == "min") {
      aggregate = std::min(aggregate, values[i]);
    } else {
      aggregate = std::max(aggregate, values[i]);
    }
  }
  if (op == "mean" && !values.empty()) {
    aggregate /= static_cast<double>(values.size());
  }
  return aggregate;
}

void add_dep(std::vector<std::size_t>& deps, std::size_t index) {
  for (const std::size_t existing : deps) {
    if (existing == index) return;
  }
  deps.push_back(index);
}

}  // namespace

std::string_view name(DagNodeKind kind) {
  switch (kind) {
    case DagNodeKind::kScenario:
      return "scenario";
    case DagNodeKind::kCampaign:
      return "campaign";
    case DagNodeKind::kReduce:
      return "reduce";
    case DagNodeKind::kSearch:
      return "search";
  }
  return "scenario";
}

bool parse_dag(const JsonValue& doc, DagSpec& out, std::string& error) {
  Ctx ctx;
  out = DagSpec();
  auto finish = [&](bool ok) {
    if (!ok) error = ctx.error;
    return ok;
  };
  if (!doc.is_object()) {
    return finish(ctx.fail("", "spec must be a JSON object"));
  }
  if (!check_keys(doc, "spec", {"scenario", "name", "nodes"}, ctx)) {
    return finish(false);
  }
  if (const JsonValue* v = doc.find("name")) {
    if (!read_string(v, "name", ctx, out.name)) return finish(false);
  }
  const JsonValue* nodes = doc.find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->size() == 0) {
    return finish(
        ctx.fail("nodes", "required (a non-empty array of node objects)"));
  }
  if (nodes->size() > kMaxDagNodes) {
    return finish(ctx.fail(
        "nodes", "dag has " + std::to_string(nodes->size()) +
                     " nodes (max " + std::to_string(kMaxDagNodes) + ")"));
  }

  // Pre-pass: names and kinds, so refs can point forward in the array.
  std::vector<NodeSketch> sketches(nodes->size());
  for (std::size_t i = 0; i < nodes->size(); ++i) {
    const JsonValue& entry = nodes->at(i);
    if (!entry.is_object()) {
      return finish(ctx.fail(node_where(i, ""), "expected a node object"));
    }
    if (!read_string(entry.find("name"), node_where(i, "") + ".name", ctx,
                     sketches[i].name)) {
      return finish(false);
    }
    if (sketches[i].name.empty()) {
      return finish(ctx.fail(node_where(i, "") + ".name", "must not be empty"));
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (sketches[j].name == sketches[i].name) {
        return finish(ctx.fail(node_where(i, ""), "duplicate node name '" +
                                                      sketches[i].name + "'"));
      }
    }
    const bool has_run = entry.find("run") != nullptr;
    const bool has_reduce = entry.find("reduce") != nullptr;
    const bool has_search = entry.find("search") != nullptr;
    if (static_cast<int>(has_run) + static_cast<int>(has_reduce) +
            static_cast<int>(has_search) !=
        1) {
      return finish(
          ctx.fail(node_where(i, sketches[i].name),
                   "needs exactly one of 'run', 'reduce', or 'search'"));
    }
    if (has_reduce) {
      sketches[i].kind = DagNodeKind::kReduce;
    } else if (has_search) {
      sketches[i].kind = DagNodeKind::kSearch;
    } else {
      const JsonValue* run = entry.find("run");
      const JsonValue* scenario =
          run->is_object() ? run->find("scenario") : nullptr;
      sketches[i].kind = (scenario != nullptr && scenario->is_string() &&
                          scenario->as_string() == "campaign")
                             ? DagNodeKind::kCampaign
                             : DagNodeKind::kScenario;
    }
  }

  out.nodes.resize(nodes->size());
  for (std::size_t i = 0; i < nodes->size(); ++i) {
    const JsonValue& entry = nodes->at(i);
    DagNode& node = out.nodes[i];
    node.name = sketches[i].name;
    node.kind = sketches[i].kind;
    const std::string where = node_where(i, node.name);
    if (!check_keys(entry, where,
                    {"name", "run", "reduce", "search", "substitutions"},
                    ctx)) {
      return finish(false);
    }
    switch (node.kind) {
      case DagNodeKind::kScenario:
      case DagNodeKind::kCampaign: {
        DagNodeKind parsed_kind;
        if (!validate_run_doc(*entry.find("run"), where + ".run", ctx,
                              /*allow_campaign=*/true, parsed_kind)) {
          return finish(false);
        }
        node.kind = parsed_kind;
        node.run = *entry.find("run");
        if (!parse_substitutions(entry.find("substitutions"),
                                 where + ".substitutions", ctx, sketches, i,
                                 node.substitutions)) {
          return finish(false);
        }
        for (const DagSubstitution& sub : node.substitutions) {
          add_dep(node.deps, sub.ref.node);
        }
        break;
      }
      case DagNodeKind::kReduce: {
        if (entry.find("substitutions") != nullptr) {
          return finish(ctx.fail(where + ".substitutions",
                                 "not supported on a reduce node"));
        }
        if (!parse_reduce(*entry.find("reduce"), where + ".reduce", ctx,
                          sketches, i, node.reduce)) {
          return finish(false);
        }
        add_dep(node.deps, node.reduce.over);
        if (node.reduce.has_baseline) add_dep(node.deps, node.reduce.baseline);
        break;
      }
      case DagNodeKind::kSearch: {
        if (entry.find("substitutions") != nullptr) {
          return finish(ctx.fail(
              where + ".substitutions",
              "belongs inside the 'search' object on a search node"));
        }
        if (!parse_search(*entry.find("search"), where + ".search", ctx,
                          sketches, i, node.search)) {
          return finish(false);
        }
        for (const DagSubstitution& sub : node.search.substitutions) {
          add_dep(node.deps, sub.ref.node);
        }
        break;
      }
    }
  }
  if (!topo_order(out.nodes, out.order, ctx)) return finish(false);
  return finish(true);
}

// --- execution --------------------------------------------------------------

namespace {

/// Per-node in-flight state: handles between schedule and finalise.
struct NodeState {
  bool scheduled = false;
  bool finalized = false;
  std::vector<ScenarioHandle> handles;
};

class DagExecutor {
 public:
  DagExecutor(ExperimentEngine& engine, const DagSpec& spec, DagRun& out,
              const DagNodeCallback& on_node)
      : engine_(engine), spec_(spec), out_(out), on_node_(on_node) {}

  bool run(std::string& error) {
    out_.nodes.clear();
    out_.nodes.resize(spec_.nodes.size());
    states_.assign(spec_.nodes.size(), NodeState());
    for (std::size_t i = 0; i < spec_.nodes.size(); ++i) {
      out_.nodes[i].name = spec_.nodes[i].name;
      out_.nodes[i].kind = spec_.nodes[i].kind;
    }
    // Ready-node schedule: walk the deterministic topological order,
    // submitting every run node's points as its dependencies retire
    // (resolving a $ref forces the upstream node to finalise).  Reduce
    // and search nodes run inline at finalise time, so independent run
    // nodes scheduled later still overlap them on the worker pool.
    for (const std::size_t index : spec_.order) {
      const DagNode& node = spec_.nodes[index];
      if (node.kind == DagNodeKind::kScenario ||
          node.kind == DagNodeKind::kCampaign) {
        if (!schedule(index, error)) return false;
      }
    }
    for (std::size_t i = 0; i < spec_.nodes.size(); ++i) {
      if (!finalize(i, error)) return false;
    }
    return true;
  }

 private:
  bool node_fail(std::size_t index, std::string_view message,
                 std::string& error) {
    error = "node '" + spec_.nodes[index].name + "': " + std::string(message);
    return false;
  }

  bool resolve_ref(std::size_t index, const DagRef& ref, JsonValue& value,
                   std::string& error) {
    if (!finalize(ref.node, error)) return false;
    std::string missing;
    const JsonValue* found =
        get_path(out_.nodes[ref.node].doc, ref.path, missing);
    if (found == nullptr) {
      return node_fail(index,
                       "$ref '" + ref.raw + "': node '" +
                           spec_.nodes[ref.node].name + "' has no value at '" +
                           missing + "'",
                       error);
    }
    value = *found;
    return true;
  }

  bool patch_substitutions(std::size_t index,
                           const std::vector<DagSubstitution>& subs,
                           JsonValue& doc, std::string& error) {
    for (const DagSubstitution& sub : subs) {
      JsonValue value;
      if (!resolve_ref(index, sub.ref, value, error)) return false;
      std::string patch_error;
      if (!detail::patch_spec_path(doc, sub.field, value, patch_error)) {
        return node_fail(index,
                         "substitution '" + sub.field + "': " + patch_error,
                         error);
      }
    }
    return true;
  }

  bool schedule(std::size_t index, std::string& error) {
    const DagNode& node = spec_.nodes[index];
    DagNodeRun& run = out_.nodes[index];
    NodeState& state = states_[index];
    obs::Span span("dag.schedule");
    JsonValue doc = node.run;
    if (!patch_substitutions(index, node.substitutions, doc, error)) {
      return false;
    }
    const SpecParseResult parsed = parse_scenario_spec(doc);
    if (!parsed.ok) return node_fail(index, parsed.error, error);
    try {
      if (parsed.spec.campaign) {
        CampaignRun campaign;
        std::string campaign_error;
        if (!submit_campaign(engine_, parsed.spec, campaign, campaign_error)) {
          return node_fail(index, campaign_error, error);
        }
        run.points.resize(campaign.points.size());
        state.handles = std::move(campaign.handles);
        for (std::size_t p = 0; p < campaign.points.size(); ++p) {
          run.points[p].label = std::move(campaign.points[p].label);
          run.points[p].config = std::move(campaign.points[p].config);
          run.points[p].outcome = campaign.outcomes[p];
        }
      } else {
        DagNodePoint point;
        point.label = node.name;
        point.config = parsed.spec.config;
        state.handles.push_back(
            engine_.submit(parsed.spec.config, &point.outcome));
        run.points.push_back(std::move(point));
      }
    } catch (const std::invalid_argument& rejected) {
      return node_fail(index, rejected.what(), error);
    }
    run.key = canonical_scenario_key(run.points.front().config);
    state.scheduled = true;
    if (obs::tracing_enabled()) {
      span.args(obs::SpanArgs()
                    .arg("node", obs::intern(node.name))
                    .arg("key", obs::intern(run.key)));
    }
    return true;
  }

  bool finalize(std::size_t index, std::string& error) {
    NodeState& state = states_[index];
    if (state.finalized) return true;
    const DagNode& node = spec_.nodes[index];
    DagNodeRun& run = out_.nodes[index];
    obs::Span span("dag.node");
    bool ok = true;
    switch (node.kind) {
      case DagNodeKind::kScenario:
      case DagNodeKind::kCampaign: {
        // Topological scheduling guarantees every dependency was
        // scheduled before anything downstream asks for its result.
        for (std::size_t p = 0; p < state.handles.size(); ++p) {
          run.points[p].result = state.handles[p].get();
        }
        state.handles.clear();
        if (node.kind == DagNodeKind::kScenario) {
          run.doc = scenario_result_to_json(run.points.front().result);
        } else {
          JsonValue points = JsonValue::array();
          for (const DagNodePoint& point : run.points) {
            JsonValue entry = JsonValue::object();
            entry.set("label", JsonValue::string(point.label))
                .set("result", scenario_result_to_json(point.result));
            points.push(std::move(entry));
          }
          run.doc = JsonValue::object();
          run.doc.set("points", std::move(points));
        }
        break;
      }
      case DagNodeKind::kReduce:
        ok = finalize_reduce(index, error);
        break;
      case DagNodeKind::kSearch:
        ok = finalize_search(index, error);
        break;
    }
    if (!ok) return false;
    state.finalized = true;
    if (obs::tracing_enabled()) {
      span.args(obs::SpanArgs()
                    .arg("node", obs::intern(node.name))
                    .arg("key", obs::intern(run.key)));
    }
    if (on_node_) on_node_(run);
    return true;
  }

  bool point_metric(std::size_t index, const DagNodeRun& upstream,
                    const DagNodePoint& point, std::string_view metric,
                    double& value, std::string& error) {
    const JsonValue doc = scenario_result_to_json(point.result);
    std::string missing;
    const JsonValue* found = get_path(doc, metric, missing);
    if (found == nullptr || !found->is_number()) {
      return node_fail(index,
                       "metric '" + std::string(metric) + "' of node '" +
                           upstream.name + "' point '" + point.label +
                           "' is missing or not a number",
                       error);
    }
    value = found->as_number();
    return true;
  }

  bool finalize_reduce(std::size_t index, std::string& error) {
    const DagReduce& reduce = spec_.nodes[index].reduce;
    DagNodeRun& run = out_.nodes[index];
    if (!finalize(reduce.over, error)) return false;
    if (reduce.has_baseline && !finalize(reduce.baseline, error)) {
      return false;
    }
    const DagNodeRun& over = out_.nodes[reduce.over];
    double baseline = 0.0;
    if (reduce.has_baseline) {
      const DagNodeRun& oracle = out_.nodes[reduce.baseline];
      if (!point_metric(index, oracle, oracle.points.front(), reduce.metric,
                        baseline, error)) {
        return false;
      }
    }
    const bool pearson = reduce.op == "pearson";
    JsonValue points = JsonValue::array();
    std::vector<double> values;
    std::vector<double> against;
    for (const DagNodePoint& point : over.points) {
      double value = 0.0;
      if (!point_metric(index, over, point, reduce.metric, value, error)) {
        return false;
      }
      if (reduce.op == "regret") value -= baseline;
      JsonValue entry = JsonValue::object();
      entry.set("label", JsonValue::string(point.label))
          .set("value", JsonValue::number(value));
      if (pearson) {
        double x = 0.0;
        if (!point_metric(index, over, point, reduce.against, x, error)) {
          return false;
        }
        entry.set("against_value", JsonValue::number(x));
        against.push_back(x);
      }
      points.push(std::move(entry));
      values.push_back(value);
    }
    run.doc = JsonValue::object();
    run.doc.set("op", JsonValue::string(reduce.op))
        .set("over", JsonValue::string(over.name))
        .set("metric", JsonValue::string(reduce.metric));
    if (pearson) run.doc.set("against", JsonValue::string(reduce.against));
    if (reduce.has_baseline) {
      run.doc.set("baseline",
                  JsonValue::string(out_.nodes[reduce.baseline].name))
          .set("baseline_value", JsonValue::number(baseline));
    }
    run.doc.set("points", std::move(points));
    if (pearson) {
      run.doc
          .set("value", JsonValue::number(analysis::pearson(against, values)))
          .set("spearman",
               JsonValue::number(analysis::spearman(against, values)));
    } else if (reduce.op == "stats") {
      analysis::RunningStats stats;
      for (const double value : values) stats.add(value);
      run.doc.set("value", JsonValue::number(stats.mean()))
          .set("sd", JsonValue::number(stats.stddev()))
          .set("ci95_halfwidth", JsonValue::number(stats.ci95_halfwidth()))
          .set("min", JsonValue::number(stats.min()))
          .set("max", JsonValue::number(stats.max()))
          .set("n", JsonValue::integer(static_cast<long long>(stats.count())));
    } else {
      run.doc.set("value", JsonValue::number(fold(reduce.op, values)));
    }
    // Reduce nodes never touch the engine; the attribution key is
    // synthetic but stable, mirroring canonical-key field separators.
    run.key = "dag-reduce\x1f" + reduce.op + "\x1f" + over.name + "\x1f" +
              reduce.metric;
    if (pearson) run.key += "\x1f" + reduce.against;
    return true;
  }

  bool finalize_search(std::size_t index, std::string& error) {
    const DagSearch& search = spec_.nodes[index].search;
    DagNodeRun& run = out_.nodes[index];
    JsonValue base = search.base;
    if (!patch_substitutions(index, search.substitutions, base, error)) {
      return false;
    }
    const std::string predicate_text = search.metric + " " + search.predicate +
                                       " " + format_exact(search.target);
    std::size_t accepted = 0;
    // Evaluate the field at x: patch, parse, submit (deduplicated by
    // canonical key), block, and read the metric.
    auto evaluate = [&](double x, double& metric, std::size_t& point_index,
                        std::string& eval_error) {
      JsonValue doc = base;
      std::string patch_error;
      if (!detail::patch_spec_path(doc, search.field, JsonValue::number(x),
                                   patch_error)) {
        return node_fail(index,
                         "search field '" + search.field + "': " + patch_error,
                         eval_error);
      }
      const SpecParseResult parsed = parse_scenario_spec(doc);
      if (!parsed.ok) {
        return node_fail(index,
                         "search point " + search.field + "=" +
                             format_exact(x) + ": " + parsed.error,
                         eval_error);
      }
      DagNodePoint point;
      point.label = search.field + "=" + format_exact(x);
      point.config = parsed.spec.config;
      ScenarioHandle handle;
      try {
        handle = engine_.submit(parsed.spec.config, &point.outcome);
      } catch (const std::invalid_argument& rejected) {
        return node_fail(index,
                         "search point " + point.label + ": " +
                             rejected.what(),
                         eval_error);
      }
      point.result = handle.get();
      point_index = run.points.size();
      run.points.push_back(std::move(point));
      return point_metric(index, run, run.points.back(), search.metric,
                          metric, eval_error);
    };
    auto holds = [&](double metric) {
      return search.predicate == "<=" ? metric <= search.target
                                      : metric >= search.target;
    };

    double lo = search.lo;
    double hi = search.hi;
    double metric = 0.0;
    std::size_t point_index = 0;
    if (!evaluate(hi, metric, point_index, error)) return false;
    if (!holds(metric)) {
      return node_fail(index,
                       "search predicate '" + predicate_text +
                           "' does not hold at hi=" + format_exact(hi) +
                           " (metric = " + format_exact(metric) + ")",
                       error);
    }
    accepted = point_index;
    if (!evaluate(lo, metric, point_index, error)) return false;
    int iterations = 0;
    if (holds(metric)) {
      hi = lo;
      accepted = point_index;
    } else {
      while (hi - lo > search.tolerance) {
        if (iterations >= search.max_iterations) {
          return node_fail(
              index,
              "search did not converge within " +
                  std::to_string(search.max_iterations) +
                  " iterations (interval [" + format_exact(lo) + ", " +
                  format_exact(hi) + "] wider than tolerance " +
                  format_exact(search.tolerance) + ")",
              error);
        }
        const double mid = 0.5 * (lo + hi);
        ++iterations;
        if (!evaluate(mid, metric, point_index, error)) return false;
        if (holds(metric)) {
          hi = mid;
          accepted = point_index;
        } else {
          lo = mid;
        }
      }
    }
    run.doc = JsonValue::object();
    run.doc.set("field", JsonValue::string(search.field))
        .set("value", JsonValue::number(hi))
        .set("iterations", JsonValue::integer(iterations))
        .set("result", scenario_result_to_json(run.points[accepted].result));
    run.key = canonical_scenario_key(run.points[accepted].config);
    return true;
  }

  ExperimentEngine& engine_;
  const DagSpec& spec_;
  DagRun& out_;
  const DagNodeCallback& on_node_;
  std::vector<NodeState> states_;
};

}  // namespace

bool run_dag(ExperimentEngine& engine, const DagSpec& spec, DagRun& out,
             std::string& error, const DagNodeCallback& on_node) {
  DagExecutor executor(engine, spec, out, on_node);
  return executor.run(error);
}

}  // namespace gpupower::core::dag
