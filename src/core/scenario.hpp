// ScenarioConfig: the type-erased submission unit of the experiment engine.
// The engine grew three parallel families — classic static experiments,
// DVFS timeline replays, and power-capped fleets — each with its own
// handle, cache key, validator, and JSON exporter.  A ScenarioConfig wraps
// any of them behind one type, and a registry of ScenarioKindInfo
// descriptors carries the per-kind hooks (validate, canonical cache key,
// per-seed replica runner, in-seed-order reduction, JSON export), so the
// engine, the spec front end (core/spec.hpp), and the CLI dispatch through
// exactly one code path.  Adding a scenario kind means adding one variant
// alternative and one descriptor row — not re-plumbing seven layers.
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
  /// Canonical cache key within the kind; the engine prefixes the kind
  /// name, so keys of different kinds can never collide.
  std::string (*canonical_key)(const ScenarioConfig&) = nullptr;
  ScenarioReplica (*run_replica)(const ScenarioConfig&, int seed_index) =
      nullptr;
  /// Consumes the replica slots (they are moved from), folding in seed
  /// order.
  ScenarioResult (*reduce)(const ScenarioConfig&,
                           std::span<ScenarioReplica>) = nullptr;
  analysis::JsonValue (*to_json)(const ScenarioConfig&,
                                 const ScenarioResult&) = nullptr;
  /// Exact, complete serialisation of the kind's result — every field,
  /// including the full per-slice traces, at round-trip precision.  This is
  /// the persistent result store's value format (core/store/), distinct
  /// from the display-oriented to_json above, which summarises and drops
  /// trace columns.
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

/// Kind-prefixed canonical key: equal keys produce bit-identical results.
[[nodiscard]] std::string canonical_scenario_key(const ScenarioConfig& config);

/// The one serial reference: every seed replica in order, reduced through
/// the same per-kind hooks the engine uses.  Prefer ExperimentEngine::submit
/// for anything batched.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

/// Structured export through the kind's exporter (to_json / dvfs_to_json /
/// fleet_to_json).
[[nodiscard]] analysis::JsonValue scenario_to_json(const ScenarioConfig& config,
                                                   const ScenarioResult& result);

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
