// Fleet timeline experiments: the measurement protocol for the multi-GPU,
// power-capped pipeline.  A FleetConfig pairs one ExperimentConfig (dtype,
// problem size, base input pattern, seeds, sampling, variation) — which
// fixes the activity working point — with a list of simulated devices
// (heterogeneous GPU models, per-device governor/timeline/priority), a
// shared power cap + allocator policy, and the RC thermal model.  Each
// seed replica builds its inputs and estimates activity ONCE (activity
// depends on inputs and sampling, not on the device), fans the timelines
// across the devices, and replays the fleet in lockstep slices; replicas
// reduce across seeds in seed order, exactly like the static kind, so
// results are bit-identical no matter how many engine workers computed
// them.
//
// A fleet of one device with an infinite cap and the thermal model off is
// bit-identical to the single-device DVFS scenario — pinned by the
// equivalence suite.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/dvfs_experiment.hpp"
#include "core/experiment.hpp"
#include "gpusim/fleet/fleet.hpp"

namespace gpupower::core {

/// One simulated device of the fleet.  The GPU model may differ per device
/// (heterogeneous fleets); dtype/n/pattern/seeds come from the shared
/// ExperimentConfig.
struct FleetDeviceConfig {
  gpupower::gpusim::GpuModel gpu = gpupower::gpusim::GpuModel::kA100PCIe;
  gpupower::gpusim::dvfs::GovernorConfig governor;
  int timeline = 0;  ///< index into FleetConfig::timelines
  int priority = 0;  ///< larger = served first by the priority allocator
};

struct FleetConfig {
  /// Shared working point: dtype, n, base pattern, seeds, base_seed,
  /// sampling, and (per-seed) process variation all apply; the `gpu` field
  /// is ignored in favour of the per-device models.
  ExperimentConfig experiment;
  /// Workload timelines devices reference by index — one shared timeline
  /// fanned across the fleet, or one per device (phase-shifted bursts are
  /// what make allocation policy matter).
  std::vector<gpupower::gpusim::dvfs::WorkloadTimeline> timelines;
  std::vector<FleetDeviceConfig> devices;
  /// Per-phase input-pattern overrides, shared by every timeline (see
  /// DvfsConfig::phase_patterns).
  std::vector<PatternSpec> phase_patterns;
  gpupower::gpusim::fleet::AllocatorConfig allocator;
  gpupower::gpusim::fleet::ThermalConfig thermal;
  double slice_s = 0.010;
  int pstates = 5;
};

/// Across-seed reduction of one device's replays.
struct FleetDeviceSummary {
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double peak_power_w = 0.0;
  double completion_s = 0.0;
  double backlog_max_s = 0.0;
  double mean_backlog_s = 0.0;
  double transitions = 0.0;
  double peak_temperature_c = 0.0;    ///< mean across seeds of per-seed peaks
  double throttled_slices = 0.0;      ///< mean across seeds
  double budget_clamped_slices = 0.0; ///< mean across seeds
};

/// Across-seed reduction of the per-seed fleet replays.
struct FleetResult {
  double energy_j = 0.0;       ///< mean across seeds (fleet total)
  double energy_std_j = 0.0;
  double avg_power_w = 0.0;
  double peak_power_w = 0.0;   ///< mean of per-seed aggregate peaks
  double completion_s = 0.0;
  double duration_s = 0.0;
  double backlog_max_s = 0.0;
  /// Fleet-level SLO metric: the p99 quantile across devices of each
  /// device's worst backlog (linear interpolation between order
  /// statistics), mean across seeds.  With few devices this tracks the
  /// max; at fleet scale it is the tail bound an SLO actually states —
  /// "99% of devices stay under X ms behind" — which one pathological
  /// device cannot dominate the way backlog_max_s can.
  double backlog_p99_s = 0.0;
  double mean_backlog_s = 0.0;
  double transitions = 0.0;
  double over_cap_slices = 0.0;  ///< mean slices the floor overdrew the cap
  bool truncated = false;
  int seeds = 0;
  std::vector<FleetDeviceSummary> devices;
  /// Seed 0's full fleet replay, as the representative time-resolved trace
  /// (same memory caveat as DvfsResult::trace — per-device slice series
  /// live until clear_cache()).
  gpupower::gpusim::fleet::FleetRun trace;
};

/// Replays one seed replica's fleet.  Thread-safe and deterministic, like
/// run_seed_replica (activity through `memo` when given).  Throws
/// std::invalid_argument on an invalid config (no devices, missing
/// timeline, out-of-range indices, non-positive slice or cap).
[[nodiscard]] gpupower::gpusim::fleet::FleetRun run_fleet_seed_replica(
    const FleetConfig& config, int seed_index,
    const ActivityMemo* memo = nullptr);

/// Folds per-seed replays (in seed order) into the reported result.
[[nodiscard]] FleetResult reduce_fleet_replicas(
    const FleetConfig& config,
    std::span<const gpupower::gpusim::fleet::FleetRun> replicas);

/// Validates a fleet config: the working point
/// (validate_experiment_config), then the cross-references a hand-assembled
/// config can get wrong (devices present, timeline indices in range,
/// phase-pattern references resolvable) and the slice/pstates/cap/thermal
/// ranges.  Returns an empty string when valid, else the first problem —
/// shared by FleetConfigBuilder, run_fleet_seed_replica and the scenario
/// registry's fleet validator.
[[nodiscard]] std::string validate_fleet_config(const FleetConfig& config);

}  // namespace gpupower::core
