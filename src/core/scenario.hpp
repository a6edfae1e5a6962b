// ScenarioConfig: the type-erased submission unit of the experiment engine.
// It wraps any of the three scenario families — classic static
// experiments, DVFS timeline replays, and power-capped fleets — behind one
// type, and a registry of ScenarioKindInfo descriptors carries the per-kind
// hooks (validate, per-seed replica runner, in-seed-order reduction, result
// codec), so the engine, the spec front end (core/spec.hpp), and the CLI
// dispatch through exactly one code path.  The cache key needs no hook: it
// is the kind's spec document (spec_to_json), normalised — see
// canonical_scenario_key.  Adding a scenario kind means adding one variant
// alternative, one descriptor row, and its spec serialisation.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "analysis/json.hpp"
#include "core/dvfs_experiment.hpp"
#include "core/experiment.hpp"
#include "core/fleet_experiment.hpp"

namespace gpupower::core {

enum class ScenarioKind {
  kStatic,  ///< classic steady-state experiment (ExperimentConfig)
  kDvfs,    ///< time-resolved P-state replay (DvfsConfig)
  kFleet,   ///< multi-GPU power-capped replay (FleetConfig)
};

inline constexpr ScenarioKind kAllScenarioKinds[] = {
    ScenarioKind::kStatic, ScenarioKind::kDvfs, ScenarioKind::kFleet};
inline constexpr std::size_t kScenarioKindCount = 3;

/// Canonical lower-case kind name ("static" | "dvfs" | "fleet") — the
/// spelling spec files and stats breakdowns use.
[[nodiscard]] std::string_view name(ScenarioKind kind) noexcept;

/// Parses a kind name ("static" accepts the "experiment" alias).
[[nodiscard]] bool parse_scenario_kind(std::string_view text,
                                       ScenarioKind& out) noexcept;

/// One submission of any scenario kind.  Implicitly constructible from the
/// typed configs so existing call sites read naturally:
///   engine.submit(ScenarioConfig(fleet_config));
class ScenarioConfig {
 public:
  /// Defaults to a static experiment with ExperimentConfig defaults.
  ScenarioConfig() = default;
  ScenarioConfig(ExperimentConfig config) : value_(std::move(config)) {}
  ScenarioConfig(DvfsConfig config) : value_(std::move(config)) {}
  ScenarioConfig(FleetConfig config) : value_(std::move(config)) {}

  [[nodiscard]] ScenarioKind kind() const noexcept {
    return static_cast<ScenarioKind>(value_.index());
  }

  // Typed accessors; throw std::logic_error on a kind mismatch so a wrong
  // cast surfaces as a pointed message instead of bad_variant_access.
  [[nodiscard]] const ExperimentConfig& static_config() const;
  [[nodiscard]] const DvfsConfig& dvfs() const;
  [[nodiscard]] const FleetConfig& fleet() const;

  /// The shared GEMM working point every kind embeds (gpu/dtype/n/pattern/
  /// seeds/sampling) — what generic code like the engine's seed fan-out
  /// needs without caring about the kind.
  [[nodiscard]] const ExperimentConfig& experiment() const noexcept;
  [[nodiscard]] int seeds() const noexcept { return experiment().seeds; }

 private:
  std::variant<ExperimentConfig, DvfsConfig, FleetConfig> value_;
};

/// The matching type-erased result.  Default-constructed results are
/// empty (valid() == false) until a reduction fills them.
class ScenarioResult {
 public:
  ScenarioResult() = default;
  ScenarioResult(ExperimentResult result) : value_(std::move(result)) {}
  ScenarioResult(DvfsResult result) : value_(std::move(result)) {}
  ScenarioResult(FleetResult result) : value_(std::move(result)) {}

  [[nodiscard]] bool valid() const noexcept { return value_.index() != 0; }
  /// Kind of the held result; kStatic for an empty result.
  [[nodiscard]] ScenarioKind kind() const noexcept {
    return value_.index() == 0
               ? ScenarioKind::kStatic
               : static_cast<ScenarioKind>(value_.index() - 1);
  }

  [[nodiscard]] const ExperimentResult& static_result() const;
  [[nodiscard]] const DvfsResult& dvfs() const;
  [[nodiscard]] const FleetResult& fleet() const;

 private:
  std::variant<std::monostate, ExperimentResult, DvfsResult, FleetResult>
      value_;
};

/// One seed replica of any kind (monostate = slot not yet computed).
using ScenarioReplica =
    std::variant<std::monostate, SeedReplicaResult,
                 gpupower::gpusim::dvfs::ReplayResult,
                 gpupower::gpusim::fleet::FleetRun>;

/// The per-kind hooks the engine and spec front end dispatch through.
/// Every hook is a pure function of its arguments; run_replica must be
/// thread-safe (the engine fans replicas across its worker pool) and
/// reduce must fold in seed order (the bit-identical-to-serial contract).
struct ScenarioKindInfo {
  ScenarioKind kind{};
  std::string_view name;
  /// Empty string when the config is submittable; else the first problem
  /// (the engine throws std::invalid_argument with it).
  std::string (*validate)(const ScenarioConfig&) = nullptr;
  /// One seed replica.  The working point's activity comes through the
  /// memo when one is given (the engine's), else it is computed directly;
  /// the replica is bit-identical either way.
  ScenarioReplica (*run_replica)(const ScenarioConfig&, int seed_index,
                                 const ActivityMemo* memo) = nullptr;
  /// Consumes the replica slots (they are moved from), folding in seed
  /// order.
  ScenarioResult (*reduce)(const ScenarioConfig&,
                           std::span<ScenarioReplica>) = nullptr;
  /// Exact, complete serialisation of the kind's result — every field,
  /// including the full per-slice traces, at round-trip precision.  This is
  /// the persistent result store's value format (core/store/) and the
  /// "result" half of every printed result document (scenario_to_json).
  analysis::JsonValue (*result_to_json)(const ScenarioResult&) = nullptr;
  /// Inverse of result_to_json: fills `out` from a stored document.
  /// Returns false (with the first problem in `error`) on any missing or
  /// mistyped field — the store treats a failed parse as a miss, never an
  /// error.
  bool (*result_from_json)(const analysis::JsonValue&, ScenarioResult&,
                           std::string&) = nullptr;
};

/// The registry row for a kind (static storage).
[[nodiscard]] const ScenarioKindInfo& scenario_kind_info(
    ScenarioKind kind) noexcept;

// --- registry-dispatching conveniences -------------------------------------

/// Empty when submittable, else the first problem.
[[nodiscard]] std::string validate_scenario(const ScenarioConfig& config);

/// The cache and store key: `<kind>\x1f` + the compact dump of the
/// config's spec document (spec_to_json) in normalised form, so equal keys
/// produce bit-identical results and configs that only differ in ways no
/// result can see share one key:
///   - a pattern's paper-default sigma (< 0) resolves to 210 (phase
///     patterns too);
///   - iterations resolve to effective_iterations(); dvfs and fleet drop
///     iterations and the sampler, which neither kind reads;
///   - a disabled thermal block keys as {"enabled":false};
///   - a timeline of more than 64 phases keys as "#<count>:<fnv1a>", a
///     digest of its raw phase fields (a burst DSL can realise ~2M phases).
/// Defined in core/spec.cpp beside the serialiser it normalises.
[[nodiscard]] std::string canonical_scenario_key(const ScenarioConfig& config);

/// The one serial reference: every seed replica in order, reduced through
/// the same per-kind hooks the engine uses, with no activity memo (every
/// replica walks its own activity).  Prefer ExperimentEngine::submit for
/// anything batched.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

/// The one result document of a finished scenario: `doc` (an object, e.g.
/// one already holding a point's "label") gains "spec": spec_to_json(config)
/// and "result": scenario_result_to_json(result), and is returned.  Both
/// halves reload: the spec re-parses to the same canonical key, the result
/// through scenario_result_from_json.  `gpowerctl run --json` and serve's
/// full_results events print it.  Defined in core/spec.cpp beside
/// spec_to_json.
[[nodiscard]] analysis::JsonValue scenario_to_json(
    const ScenarioConfig& config, const ScenarioResult& result,
    analysis::JsonValue doc = analysis::JsonValue::object());

/// Full-fidelity result serialisation through the kind's result codec (the
/// persistent store's value format): dumping and re-parsing reproduces the
/// result bit-identically.  Throws std::logic_error on an empty result.
[[nodiscard]] analysis::JsonValue scenario_result_to_json(
    const ScenarioResult& result);

/// Parses a scenario_result_to_json document of the given kind.  Returns
/// false (with the first problem in `error`) on malformed input; never
/// throws on bad data.
[[nodiscard]] bool scenario_result_from_json(ScenarioKind kind,
                                             const analysis::JsonValue& doc,
                                             ScenarioResult& out,
                                             std::string& error);

}  // namespace gpupower::core
