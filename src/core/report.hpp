// Structured export of experiment results: turns each scenario kind's
// config/result pair into JSON for downstream analysis and archival — the
// per-kind display exporters behind scenario_to_json and `gpowerctl run
// --json`.
#pragma once

#include "analysis/json.hpp"
#include "core/dvfs_experiment.hpp"
#include "core/experiment.hpp"
#include "core/fleet_experiment.hpp"

namespace gpupower::core {

/// One experiment's config + result as a JSON object (pattern serialised in
/// DSL form, rails broken out, protocol recorded).
[[nodiscard]] analysis::JsonValue to_json(const ExperimentConfig& config,
                                          const ExperimentResult& result);

/// A DVFS timeline experiment: config (governor/timeline in DSL form),
/// across-seed summary, and the representative per-slice trace.
[[nodiscard]] analysis::JsonValue dvfs_to_json(const DvfsConfig& config,
                                               const DvfsResult& result);

/// A fleet power-capping experiment: config (devices, allocator, thermal),
/// fleet-aggregate summary + per-slice aggregate power series, and one
/// entry per device with its across-seed summary and representative
/// per-slice trace (power/pstate/backlog, plus temperature and budget when
/// the thermal model / cap are on).
[[nodiscard]] analysis::JsonValue fleet_to_json(const FleetConfig& config,
                                                const FleetResult& result);

}  // namespace gpupower::core
