// The traced run's layer replay: a seeded sample of a workload's replicas
// recomputed serially through the public calls of each layer, each call
// under a benchmark-owned span and timed from outside.  Every replay is
// checked against the program's own composite (build_inputs,
// run_seed_replica, run_fleet_seed_replica, the store round trip), so the
// per-layer numbers are known to measure the same program.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/fleet_experiment.hpp"
#include "core/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One sampled replica: a GEMM working point and its seed index, plus the
/// fleet replayed on that working point (the workload's own fleet point on
/// fleet_grid, a fleet_grid-shaped probe elsewhere).
struct LayerSample {
  std::string id;
  gpupower::core::ExperimentConfig experiment;
  int seed_index = 0;
  std::optional<gpupower::core::FleetConfig> fleet;
};

/// inputs.*, activity.*, power.*, telemetry.*, fleet.*, layers.replicas.
void replay_replica_layers(const std::vector<LayerSample>& samples,
                           MetricValues& out,
                           std::vector<std::string>& parity_failures);

/// store.open_ms / read_us / write_ms / entry_kb: saves `entries` into a
/// scratch store under `scratch_dir`, opens `open_dir` (the workload's own
/// store when it has one), and loads every entry back.
void replay_store_layer(
    const std::string& scratch_dir, const std::string& open_dir,
    const std::vector<std::pair<std::string, gpupower::core::ScenarioResult>>&
        entries,
    MetricValues& out, std::vector<std::string>& parity_failures);

/// spec.parse_us / expand_us / key_us / key_bytes over the workload's
/// request texts.
void replay_spec_layer(const std::vector<WorkloadRequest>& requests,
                       MetricValues& out,
                       std::vector<std::string>& parity_failures);

}  // namespace perfbench
