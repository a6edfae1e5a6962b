#include "core/scenario.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gpupower::core {
namespace {

[[noreturn]] void throw_kind_mismatch(const char* accessor,
                                      ScenarioKind actual) {
  throw std::logic_error(std::string("ScenarioConfig/Result::") + accessor +
                         "(): scenario holds a " + std::string(name(actual)) +
                         " value");
}

/// Moves the typed replicas out of their variant slots; the engine clears
/// the slots right after the reduction, so the move is safe.
template <typename Replica>
std::vector<Replica> take_replicas(std::span<ScenarioReplica> replicas) {
  std::vector<Replica> typed;
  typed.reserve(replicas.size());
  for (ScenarioReplica& replica : replicas) {
    typed.push_back(std::get<Replica>(std::move(replica)));
  }
  return typed;
}

// --- static experiment hooks -----------------------------------------------

std::string static_validate(const ScenarioConfig& config) {
  return validate_experiment_config(config.static_config());
}

ScenarioReplica static_replica(const ScenarioConfig& config, int seed_index,
                               const ActivityMemo* memo) {
  return run_seed_replica(config.static_config(), seed_index, memo);
}

ScenarioResult static_reduce(const ScenarioConfig& config,
                             std::span<ScenarioReplica> replicas) {
  return reduce_replicas(config.static_config(),
                         take_replicas<SeedReplicaResult>(replicas));
}

// --- DVFS hooks ------------------------------------------------------------

std::string dvfs_validate(const ScenarioConfig& config) {
  return validate_dvfs_config(config.dvfs());
}

ScenarioReplica dvfs_replica(const ScenarioConfig& config, int seed_index,
                             const ActivityMemo* memo) {
  return run_dvfs_seed_replica(config.dvfs(), seed_index, memo);
}

ScenarioResult dvfs_reduce(const ScenarioConfig& config,
                           std::span<ScenarioReplica> replicas) {
  return reduce_dvfs_replicas(
      config.dvfs(),
      take_replicas<gpupower::gpusim::dvfs::ReplayResult>(replicas));
}

// --- fleet hooks -----------------------------------------------------------

std::string fleet_validate(const ScenarioConfig& config) {
  return validate_fleet_config(config.fleet());
}

ScenarioReplica fleet_replica(const ScenarioConfig& config, int seed_index,
                              const ActivityMemo* memo) {
  return run_fleet_seed_replica(config.fleet(), seed_index, memo);
}

ScenarioResult fleet_reduce(const ScenarioConfig& config,
                            std::span<ScenarioReplica> replicas) {
  return reduce_fleet_replicas(
      config.fleet(),
      take_replicas<gpupower::gpusim::fleet::FleetRun>(replicas));
}

// --- full-fidelity result codecs (the store's value format) ----------------
//
// These serialise EVERY result field at round-trip precision —
// JsonValue emits doubles via shortest-round-trip to_chars and parses them
// back with strtod, so dump+parse reproduces each result bit-identically.
// Per-slice traces are stored columnar (one array per field) to keep the
// entries compact and diffable.

using analysis::JsonValue;

JsonValue num(double v) { return JsonValue::number(v); }

bool read_num(const JsonValue& obj, const char* key, double& out,
              std::string& error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    error = std::string("result field '") + key + "' missing or non-numeric";
    return false;
  }
  out = v->as_number();
  return true;
}

bool read_int(const JsonValue& obj, const char* key, int& out,
              std::string& error) {
  double v = 0.0;
  if (!read_num(obj, key, v, error)) return false;
  out = static_cast<int>(v);
  return true;
}

bool read_bool(const JsonValue& obj, const char* key, bool& out,
               std::string& error) {
  const JsonValue* v = obj.find(key);
  // as_boolean returns the fallback for non-bool kinds, so the two probes
  // agree exactly when the member is a real boolean.
  if (v == nullptr || v->as_boolean(false) != v->as_boolean(true)) {
    error = std::string("result field '") + key + "' missing or non-boolean";
    return false;
  }
  out = v->as_boolean();
  return true;
}

JsonValue doubles_json(std::span<const double> values) {
  JsonValue arr = JsonValue::array();
  for (const double v : values) arr.push(num(v));
  return arr;
}

bool read_doubles(const JsonValue& obj, const char* key,
                  std::vector<double>& out, std::string& error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_array()) {
    error = std::string("result field '") + key + "' missing or non-array";
    return false;
  }
  out.clear();
  out.reserve(v->size());
  for (std::size_t i = 0; i < v->size(); ++i) {
    const JsonValue& e = v->at(i);
    if (!e.is_number()) {
      error = std::string("result field '") + key + "' has a non-numeric entry";
      return false;
    }
    out.push_back(e.as_number());
  }
  return true;
}

JsonValue replay_result_json(const gpupower::gpusim::dvfs::ReplayResult& r) {
  JsonValue t = JsonValue::array();
  JsonValue offered = JsonValue::array();
  JsonValue utilization = JsonValue::array();
  JsonValue pstate = JsonValue::array();
  JsonValue clock_frac = JsonValue::array();
  JsonValue power = JsonValue::array();
  JsonValue backlog = JsonValue::array();
  for (const auto& s : r.slices) {
    t.push(num(s.t_s));
    offered.push(num(s.offered));
    utilization.push(num(s.utilization));
    pstate.push(JsonValue::integer(s.pstate));
    clock_frac.push(num(s.clock_frac));
    power.push(num(s.power_w));
    backlog.push(num(s.backlog_s));
  }
  JsonValue cols = JsonValue::object();
  cols.set("t_s", std::move(t))
      .set("offered", std::move(offered))
      .set("utilization", std::move(utilization))
      .set("pstate", std::move(pstate))
      .set("clock_frac", std::move(clock_frac))
      .set("power_w", std::move(power))
      .set("backlog_s", std::move(backlog));
  JsonValue doc = JsonValue::object();
  doc.set("slice_s", num(r.slice_s))
      .set("energy_j", num(r.energy_j))
      .set("avg_power_w", num(r.avg_power_w))
      .set("peak_power_w", num(r.peak_power_w))
      .set("duration_s", num(r.duration_s))
      .set("completion_s", num(r.completion_s))
      .set("backlog_max_s", num(r.backlog_max_s))
      .set("mean_backlog_s", num(r.mean_backlog_s))
      .set("work_offered_s", num(r.work_offered_s))
      .set("work_completed_s", num(r.work_completed_s))
      .set("transitions", JsonValue::integer(r.transitions))
      .set("truncated", JsonValue::boolean(r.truncated))
      .set("slices", std::move(cols));
  return doc;
}

bool replay_result_parse(const JsonValue& doc,
                         gpupower::gpusim::dvfs::ReplayResult& r,
                         std::string& error) {
  if (!doc.is_object()) {
    error = "replay trace is not an object";
    return false;
  }
  if (!read_num(doc, "slice_s", r.slice_s, error) ||
      !read_num(doc, "energy_j", r.energy_j, error) ||
      !read_num(doc, "avg_power_w", r.avg_power_w, error) ||
      !read_num(doc, "peak_power_w", r.peak_power_w, error) ||
      !read_num(doc, "duration_s", r.duration_s, error) ||
      !read_num(doc, "completion_s", r.completion_s, error) ||
      !read_num(doc, "backlog_max_s", r.backlog_max_s, error) ||
      !read_num(doc, "mean_backlog_s", r.mean_backlog_s, error) ||
      !read_num(doc, "work_offered_s", r.work_offered_s, error) ||
      !read_num(doc, "work_completed_s", r.work_completed_s, error) ||
      !read_int(doc, "transitions", r.transitions, error) ||
      !read_bool(doc, "truncated", r.truncated, error)) {
    return false;
  }
  const JsonValue* cols = doc.find("slices");
  if (cols == nullptr || !cols->is_object()) {
    error = "replay trace 'slices' missing or non-object";
    return false;
  }
  std::vector<double> t, offered, utilization, pstate, clock_frac, power,
      backlog;
  if (!read_doubles(*cols, "t_s", t, error) ||
      !read_doubles(*cols, "offered", offered, error) ||
      !read_doubles(*cols, "utilization", utilization, error) ||
      !read_doubles(*cols, "pstate", pstate, error) ||
      !read_doubles(*cols, "clock_frac", clock_frac, error) ||
      !read_doubles(*cols, "power_w", power, error) ||
      !read_doubles(*cols, "backlog_s", backlog, error)) {
    return false;
  }
  const std::size_t count = t.size();
  if (offered.size() != count || utilization.size() != count ||
      pstate.size() != count || clock_frac.size() != count ||
      power.size() != count || backlog.size() != count) {
    error = "replay trace columns have mismatched lengths";
    return false;
  }
  r.slices.clear();
  r.slices.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto& s = r.slices[i];
    s.t_s = t[i];
    s.offered = offered[i];
    s.utilization = utilization[i];
    s.pstate = static_cast<int>(pstate[i]);
    s.clock_frac = clock_frac[i];
    s.power_w = power[i];
    s.backlog_s = backlog[i];
  }
  return true;
}

JsonValue static_result_json(const ScenarioResult& result) {
  const ExperimentResult& r = result.static_result();
  JsonValue rails = JsonValue::object();
  rails.set("fetch_w", num(r.rails.fetch_w))
      .set("operand_w", num(r.rails.operand_w))
      .set("multiply_w", num(r.rails.multiply_w))
      .set("accum_w", num(r.rails.accum_w))
      .set("issue_w", num(r.rails.issue_w));
  JsonValue doc = JsonValue::object();
  doc.set("power_w", num(r.power_w))
      .set("power_std_w", num(r.power_std_w))
      .set("iteration_s", num(r.iteration_s))
      .set("energy_per_iter_j", num(r.energy_per_iter_j))
      .set("alignment", num(r.alignment))
      .set("weight_fraction", num(r.weight_fraction))
      .set("rails", std::move(rails))
      .set("throttled", JsonValue::boolean(r.throttled))
      .set("clock_frac", num(r.clock_frac))
      .set("seeds", JsonValue::integer(r.seeds));
  return doc;
}

bool static_result_parse(const JsonValue& doc, ScenarioResult& out,
                         std::string& error) {
  if (!doc.is_object()) {
    error = "static result is not an object";
    return false;
  }
  ExperimentResult r;
  const JsonValue* rails = doc.find("rails");
  if (rails == nullptr || !rails->is_object()) {
    error = "result field 'rails' missing or non-object";
    return false;
  }
  if (!read_num(doc, "power_w", r.power_w, error) ||
      !read_num(doc, "power_std_w", r.power_std_w, error) ||
      !read_num(doc, "iteration_s", r.iteration_s, error) ||
      !read_num(doc, "energy_per_iter_j", r.energy_per_iter_j, error) ||
      !read_num(doc, "alignment", r.alignment, error) ||
      !read_num(doc, "weight_fraction", r.weight_fraction, error) ||
      !read_num(*rails, "fetch_w", r.rails.fetch_w, error) ||
      !read_num(*rails, "operand_w", r.rails.operand_w, error) ||
      !read_num(*rails, "multiply_w", r.rails.multiply_w, error) ||
      !read_num(*rails, "accum_w", r.rails.accum_w, error) ||
      !read_num(*rails, "issue_w", r.rails.issue_w, error) ||
      !read_bool(doc, "throttled", r.throttled, error) ||
      !read_num(doc, "clock_frac", r.clock_frac, error) ||
      !read_int(doc, "seeds", r.seeds, error)) {
    return false;
  }
  out = ScenarioResult(std::move(r));
  return true;
}

JsonValue dvfs_result_json(const ScenarioResult& result) {
  const DvfsResult& r = result.dvfs();
  JsonValue doc = JsonValue::object();
  doc.set("energy_j", num(r.energy_j))
      .set("energy_std_j", num(r.energy_std_j))
      .set("avg_power_w", num(r.avg_power_w))
      .set("peak_power_w", num(r.peak_power_w))
      .set("completion_s", num(r.completion_s))
      .set("duration_s", num(r.duration_s))
      .set("backlog_max_s", num(r.backlog_max_s))
      .set("mean_backlog_s", num(r.mean_backlog_s))
      .set("transitions", num(r.transitions))
      .set("truncated", JsonValue::boolean(r.truncated))
      .set("seeds", JsonValue::integer(r.seeds))
      .set("trace", replay_result_json(r.trace));
  return doc;
}

bool dvfs_result_parse(const JsonValue& doc, ScenarioResult& out,
                       std::string& error) {
  if (!doc.is_object()) {
    error = "dvfs result is not an object";
    return false;
  }
  DvfsResult r;
  if (!read_num(doc, "energy_j", r.energy_j, error) ||
      !read_num(doc, "energy_std_j", r.energy_std_j, error) ||
      !read_num(doc, "avg_power_w", r.avg_power_w, error) ||
      !read_num(doc, "peak_power_w", r.peak_power_w, error) ||
      !read_num(doc, "completion_s", r.completion_s, error) ||
      !read_num(doc, "duration_s", r.duration_s, error) ||
      !read_num(doc, "backlog_max_s", r.backlog_max_s, error) ||
      !read_num(doc, "mean_backlog_s", r.mean_backlog_s, error) ||
      !read_num(doc, "transitions", r.transitions, error) ||
      !read_bool(doc, "truncated", r.truncated, error) ||
      !read_int(doc, "seeds", r.seeds, error)) {
    return false;
  }
  const JsonValue* trace = doc.find("trace");
  if (trace == nullptr || !replay_result_parse(*trace, r.trace, error)) {
    if (trace == nullptr) error = "result field 'trace' missing";
    return false;
  }
  out = ScenarioResult(std::move(r));
  return true;
}

JsonValue fleet_device_run_json(
    const gpupower::gpusim::fleet::FleetDeviceRun& d) {
  JsonValue doc = JsonValue::object();
  doc.set("replay", replay_result_json(d.replay))
      .set("temperature_c", doubles_json(d.temperature_c))
      .set("budget_w", doubles_json(d.budget_w))
      .set("peak_temperature_c", num(d.peak_temperature_c))
      .set("throttled_slices", JsonValue::integer(d.throttled_slices))
      .set("budget_clamped_slices",
           JsonValue::integer(d.budget_clamped_slices));
  return doc;
}

bool fleet_device_run_parse(const JsonValue& doc,
                            gpupower::gpusim::fleet::FleetDeviceRun& d,
                            std::string& error) {
  if (!doc.is_object()) {
    error = "fleet device run is not an object";
    return false;
  }
  const JsonValue* replay = doc.find("replay");
  if (replay == nullptr || !replay_result_parse(*replay, d.replay, error)) {
    if (replay == nullptr) error = "result field 'replay' missing";
    return false;
  }
  return read_doubles(doc, "temperature_c", d.temperature_c, error) &&
         read_doubles(doc, "budget_w", d.budget_w, error) &&
         read_num(doc, "peak_temperature_c", d.peak_temperature_c, error) &&
         read_int(doc, "throttled_slices", d.throttled_slices, error) &&
         read_int(doc, "budget_clamped_slices", d.budget_clamped_slices,
                  error);
}

JsonValue fleet_run_json(const gpupower::gpusim::fleet::FleetRun& run) {
  JsonValue devices = JsonValue::array();
  for (const auto& d : run.devices) devices.push(fleet_device_run_json(d));
  JsonValue doc = JsonValue::object();
  doc.set("devices", std::move(devices))
      .set("fleet_power_w", doubles_json(run.fleet_power_w))
      .set("slice_s", num(run.slice_s))
      // Infinity marks the uncapped fleet; JSON has no literal for it, so
      // the codec spells it as null.
      .set("cap_w", std::isfinite(run.cap_w) ? num(run.cap_w)
                                             : JsonValue::null())
      .set("duration_s", num(run.duration_s))
      .set("energy_j", num(run.energy_j))
      .set("avg_power_w", num(run.avg_power_w))
      .set("peak_power_w", num(run.peak_power_w))
      .set("completion_s", num(run.completion_s))
      .set("backlog_max_s", num(run.backlog_max_s))
      .set("mean_backlog_s", num(run.mean_backlog_s))
      .set("transitions", JsonValue::integer(run.transitions))
      .set("over_cap_slices", JsonValue::integer(run.over_cap_slices))
      .set("truncated", JsonValue::boolean(run.truncated));
  return doc;
}

bool fleet_run_parse(const JsonValue& doc,
                     gpupower::gpusim::fleet::FleetRun& run,
                     std::string& error) {
  if (!doc.is_object()) {
    error = "fleet run is not an object";
    return false;
  }
  const JsonValue* devices = doc.find("devices");
  if (devices == nullptr || !devices->is_array()) {
    error = "result field 'devices' missing or non-array";
    return false;
  }
  run.devices.clear();
  run.devices.resize(devices->size());
  for (std::size_t i = 0; i < devices->size(); ++i) {
    if (!fleet_device_run_parse(devices->at(i), run.devices[i], error)) {
      return false;
    }
  }
  const JsonValue* cap = doc.find("cap_w");
  if (cap == nullptr || !(cap->is_null() || cap->is_number())) {
    error = "result field 'cap_w' missing or non-numeric/null";
    return false;
  }
  run.cap_w = cap->is_null() ? std::numeric_limits<double>::infinity()
                             : cap->as_number();
  return read_doubles(doc, "fleet_power_w", run.fleet_power_w, error) &&
         read_num(doc, "slice_s", run.slice_s, error) &&
         read_num(doc, "duration_s", run.duration_s, error) &&
         read_num(doc, "energy_j", run.energy_j, error) &&
         read_num(doc, "avg_power_w", run.avg_power_w, error) &&
         read_num(doc, "peak_power_w", run.peak_power_w, error) &&
         read_num(doc, "completion_s", run.completion_s, error) &&
         read_num(doc, "backlog_max_s", run.backlog_max_s, error) &&
         read_num(doc, "mean_backlog_s", run.mean_backlog_s, error) &&
         read_int(doc, "transitions", run.transitions, error) &&
         read_int(doc, "over_cap_slices", run.over_cap_slices, error) &&
         read_bool(doc, "truncated", run.truncated, error);
}

JsonValue fleet_result_json(const ScenarioResult& result) {
  const FleetResult& r = result.fleet();
  JsonValue devices = JsonValue::array();
  for (const auto& d : r.devices) {
    JsonValue entry = JsonValue::object();
    entry.set("energy_j", num(d.energy_j))
        .set("avg_power_w", num(d.avg_power_w))
        .set("peak_power_w", num(d.peak_power_w))
        .set("completion_s", num(d.completion_s))
        .set("backlog_max_s", num(d.backlog_max_s))
        .set("mean_backlog_s", num(d.mean_backlog_s))
        .set("transitions", num(d.transitions))
        .set("peak_temperature_c", num(d.peak_temperature_c))
        .set("throttled_slices", num(d.throttled_slices))
        .set("budget_clamped_slices", num(d.budget_clamped_slices));
    devices.push(std::move(entry));
  }
  JsonValue doc = JsonValue::object();
  doc.set("energy_j", num(r.energy_j))
      .set("energy_std_j", num(r.energy_std_j))
      .set("avg_power_w", num(r.avg_power_w))
      .set("peak_power_w", num(r.peak_power_w))
      .set("completion_s", num(r.completion_s))
      .set("duration_s", num(r.duration_s))
      .set("backlog_max_s", num(r.backlog_max_s))
      .set("backlog_p99_s", num(r.backlog_p99_s))
      .set("mean_backlog_s", num(r.mean_backlog_s))
      .set("transitions", num(r.transitions))
      .set("over_cap_slices", num(r.over_cap_slices))
      .set("truncated", JsonValue::boolean(r.truncated))
      .set("seeds", JsonValue::integer(r.seeds))
      .set("devices", std::move(devices))
      .set("trace", fleet_run_json(r.trace));
  return doc;
}

bool fleet_result_parse(const JsonValue& doc, ScenarioResult& out,
                        std::string& error) {
  if (!doc.is_object()) {
    error = "fleet result is not an object";
    return false;
  }
  FleetResult r;
  if (!read_num(doc, "energy_j", r.energy_j, error) ||
      !read_num(doc, "energy_std_j", r.energy_std_j, error) ||
      !read_num(doc, "avg_power_w", r.avg_power_w, error) ||
      !read_num(doc, "peak_power_w", r.peak_power_w, error) ||
      !read_num(doc, "completion_s", r.completion_s, error) ||
      !read_num(doc, "duration_s", r.duration_s, error) ||
      !read_num(doc, "backlog_max_s", r.backlog_max_s, error) ||
      !read_num(doc, "backlog_p99_s", r.backlog_p99_s, error) ||
      !read_num(doc, "mean_backlog_s", r.mean_backlog_s, error) ||
      !read_num(doc, "transitions", r.transitions, error) ||
      !read_num(doc, "over_cap_slices", r.over_cap_slices, error) ||
      !read_bool(doc, "truncated", r.truncated, error) ||
      !read_int(doc, "seeds", r.seeds, error)) {
    return false;
  }
  const JsonValue* devices = doc.find("devices");
  if (devices == nullptr || !devices->is_array()) {
    error = "result field 'devices' missing or non-array";
    return false;
  }
  r.devices.resize(devices->size());
  for (std::size_t i = 0; i < devices->size(); ++i) {
    const JsonValue& entry = devices->at(i);
    auto& d = r.devices[i];
    if (!entry.is_object()) {
      error = "fleet device summary is not an object";
      return false;
    }
    if (!read_num(entry, "energy_j", d.energy_j, error) ||
        !read_num(entry, "avg_power_w", d.avg_power_w, error) ||
        !read_num(entry, "peak_power_w", d.peak_power_w, error) ||
        !read_num(entry, "completion_s", d.completion_s, error) ||
        !read_num(entry, "backlog_max_s", d.backlog_max_s, error) ||
        !read_num(entry, "mean_backlog_s", d.mean_backlog_s, error) ||
        !read_num(entry, "transitions", d.transitions, error) ||
        !read_num(entry, "peak_temperature_c", d.peak_temperature_c, error) ||
        !read_num(entry, "throttled_slices", d.throttled_slices, error) ||
        !read_num(entry, "budget_clamped_slices", d.budget_clamped_slices,
                  error)) {
      return false;
    }
  }
  const JsonValue* trace = doc.find("trace");
  if (trace == nullptr || !fleet_run_parse(*trace, r.trace, error)) {
    if (trace == nullptr) error = "result field 'trace' missing";
    return false;
  }
  out = ScenarioResult(std::move(r));
  return true;
}

constexpr ScenarioKindInfo kRegistry[kScenarioKindCount] = {
    {ScenarioKind::kStatic, "static", &static_validate, &static_replica,
     &static_reduce, &static_result_json, &static_result_parse},
    {ScenarioKind::kDvfs, "dvfs", &dvfs_validate, &dvfs_replica, &dvfs_reduce,
     &dvfs_result_json, &dvfs_result_parse},
    {ScenarioKind::kFleet, "fleet", &fleet_validate, &fleet_replica,
     &fleet_reduce, &fleet_result_json, &fleet_result_parse},
};

}  // namespace

std::string_view name(ScenarioKind kind) noexcept {
  return kRegistry[static_cast<std::size_t>(kind)].name;
}

bool parse_scenario_kind(std::string_view text, ScenarioKind& out) noexcept {
  for (const ScenarioKindInfo& info : kRegistry) {
    if (text == info.name) {
      out = info.kind;
      return true;
    }
  }
  if (text == "experiment") {  // the spec-file alias for "static"
    out = ScenarioKind::kStatic;
    return true;
  }
  return false;
}

const ExperimentConfig& ScenarioConfig::static_config() const {
  if (kind() != ScenarioKind::kStatic) {
    throw_kind_mismatch("static_config", kind());
  }
  return std::get<ExperimentConfig>(value_);
}

const DvfsConfig& ScenarioConfig::dvfs() const {
  if (kind() != ScenarioKind::kDvfs) throw_kind_mismatch("dvfs", kind());
  return std::get<DvfsConfig>(value_);
}

const FleetConfig& ScenarioConfig::fleet() const {
  if (kind() != ScenarioKind::kFleet) throw_kind_mismatch("fleet", kind());
  return std::get<FleetConfig>(value_);
}

const ExperimentConfig& ScenarioConfig::experiment() const noexcept {
  switch (kind()) {
    case ScenarioKind::kDvfs:
      return std::get<DvfsConfig>(value_).experiment;
    case ScenarioKind::kFleet:
      return std::get<FleetConfig>(value_).experiment;
    case ScenarioKind::kStatic:
      break;
  }
  return std::get<ExperimentConfig>(value_);
}

const ExperimentResult& ScenarioResult::static_result() const {
  if (!valid() || kind() != ScenarioKind::kStatic) {
    throw_kind_mismatch("static_result", kind());
  }
  return std::get<ExperimentResult>(value_);
}

const DvfsResult& ScenarioResult::dvfs() const {
  if (!valid() || kind() != ScenarioKind::kDvfs) {
    throw_kind_mismatch("dvfs", kind());
  }
  return std::get<DvfsResult>(value_);
}

const FleetResult& ScenarioResult::fleet() const {
  if (!valid() || kind() != ScenarioKind::kFleet) {
    throw_kind_mismatch("fleet", kind());
  }
  return std::get<FleetResult>(value_);
}

const ScenarioKindInfo& scenario_kind_info(ScenarioKind kind) noexcept {
  return kRegistry[static_cast<std::size_t>(kind)];
}

std::string validate_scenario(const ScenarioConfig& config) {
  return scenario_kind_info(config.kind()).validate(config);
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  const ScenarioKindInfo& info = scenario_kind_info(config.kind());
  const std::string problem = info.validate(config);
  if (!problem.empty()) {
    throw std::invalid_argument("run_scenario: " + problem);
  }
  std::vector<ScenarioReplica> replicas;
  replicas.reserve(static_cast<std::size_t>(config.seeds()));
  for (int s = 0; s < config.seeds(); ++s) {
    replicas.push_back(info.run_replica(config, s, nullptr));
  }
  return info.reduce(config, replicas);
}

analysis::JsonValue scenario_result_to_json(const ScenarioResult& result) {
  if (!result.valid()) {
    throw std::logic_error(
        "scenario_result_to_json: empty result (no reduction has filled it)");
  }
  return scenario_kind_info(result.kind()).result_to_json(result);
}

bool scenario_result_from_json(ScenarioKind kind,
                               const analysis::JsonValue& doc,
                               ScenarioResult& out, std::string& error) {
  return scenario_kind_info(kind).result_from_json(doc, out, error);
}

}  // namespace gpupower::core
