// DVFS timeline experiments: the measurement protocol for the time-resolved
// P-state pipeline.  A DvfsConfig pairs a classic ExperimentConfig (GPU,
// datatype, problem size, input pattern, seeds) — which fixes the *active*
// power level via the activity walk — with a workload timeline, a governor
// policy, and the P-state table depth.  Each seed replica builds its own
// inputs, estimates activity, and replays the timeline; replicas reduce
// across seeds in seed order, exactly like the static kind, so results are
// bit-identical no matter how many engine workers computed them.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "gpusim/dvfs/governor.hpp"
#include "gpusim/dvfs/replay.hpp"
#include "gpusim/dvfs/timeline.hpp"

namespace gpupower::core {

struct DvfsConfig {
  /// The GEMM working point: gpu, dtype, n, pattern, seeds, base_seed,
  /// sampling, and (per-seed) variation all apply; the DCGM sampler fields
  /// are unused (the replayer produces its own time-resolved trace).
  ExperimentConfig experiment;
  gpupower::gpusim::dvfs::GovernorConfig governor;
  gpupower::gpusim::dvfs::WorkloadTimeline timeline;
  /// Input patterns a timeline phase can reference by index
  /// (TimelinePhase::pattern / the DSL's `pattern=K` key), so activity —
  /// not just offered load — varies over time.  Each referenced pattern
  /// costs one extra activity walk per seed replica.  Empty (and no phase
  /// referencing one) is bit-identical to the pre-phase-pattern replays.
  std::vector<PatternSpec> phase_patterns;
  double slice_s = 0.010;  ///< replay time step (10 ms, PowerMizer-ish)
  /// P-state table depth for the device; 1 = boost-only, the "DVFS
  /// disabled" degenerate case that reproduces the static model.
  int pstates = 5;
};

/// Across-seed reduction of the per-seed replays.
struct DvfsResult {
  double energy_j = 0.0;       ///< mean across seeds
  double energy_std_j = 0.0;
  double avg_power_w = 0.0;
  double peak_power_w = 0.0;   ///< mean of per-seed peaks
  double completion_s = 0.0;
  double duration_s = 0.0;
  double backlog_max_s = 0.0;
  double mean_backlog_s = 0.0;
  double transitions = 0.0;    ///< mean P-state changes per replay
  /// Any replica hit the replay slice-cap backstop with backlog still
  /// queued — energy/completion under-count the unserved tail.
  bool truncated = false;
  int seeds = 0;
  /// Seed 0's full replay, as the representative time-resolved trace.
  /// Size scales with duration/slice_s (a 1 us slice over a long timeline
  /// is hundreds of MB); results cached inside an ExperimentEngine hold
  /// this until clear_cache() or engine destruction, so prefer coarser
  /// slices for sweep-scale work.
  gpupower::gpusim::dvfs::ReplayResult trace;
};

/// Validates a DVFS config: the working point (validate_experiment_config),
/// then empty timeline, slice and pstates ranges, and dangling
/// phase-pattern references.  Returns an empty string when valid, else the
/// first problem — shared by DvfsConfigBuilder, run_dvfs_seed_replica and
/// the scenario registry's dvfs validator.
[[nodiscard]] std::string validate_dvfs_config(const DvfsConfig& config);

/// The replay-knob checks DVFS and fleet configs share: slice_s in
/// [1e-6, 10] seconds, pstates in [1, 16].  Empty when both are in range.
[[nodiscard]] std::string validate_replay_knobs(double slice_s, int pstates);

/// Replays one seed replica's timeline.  Thread-safe and deterministic,
/// like run_seed_replica (activity through `memo` when given).  Throws
/// std::invalid_argument when validate_dvfs_config rejects the config.
[[nodiscard]] gpupower::gpusim::dvfs::ReplayResult run_dvfs_seed_replica(
    const DvfsConfig& config, int seed_index,
    const ActivityMemo* memo = nullptr);

/// Folds per-seed replays (in seed order) into the reported result.
[[nodiscard]] DvfsResult reduce_dvfs_replicas(
    const DvfsConfig& config,
    std::span<const gpupower::gpusim::dvfs::ReplayResult> replicas);

/// Activity totals for every working point a timeline can reference:
/// element 0 is the experiment's base pattern, element k+1 is
/// phase_patterns[k] — the variant table the multi-variant
/// TimelineReplayer consumes.  Shared by the DVFS and fleet replica
/// runners (the fleet computes it once per seed and reuses it across
/// devices, since activity depends on inputs and sampling, not on the
/// device).  `sim` must be the replica's simulator
/// (replica_sim_options(experiment, seed_index)) — passed in so the
/// caller's descriptor and the activity walk cannot drift apart.  Each
/// variant is one working_point_activity call, through `memo` when given.
/// Throws std::invalid_argument when a phase references a pattern index
/// outside `phase_patterns`.
[[nodiscard]] std::vector<gpupower::gpusim::ActivityTotals>
replica_activity_variants(
    const gpupower::gpusim::GpuSimulator& sim,
    const ExperimentConfig& experiment,
    std::span<const PatternSpec> phase_patterns,
    const gpupower::gpusim::dvfs::WorkloadTimeline& timeline,
    const gemm::GemmProblem& problem, int seed_index,
    const ActivityMemo* memo = nullptr);

}  // namespace gpupower::core
