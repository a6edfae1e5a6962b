#include "core/dvfs_experiment.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "core/activity_memo.hpp"
#include "gpusim/dvfs/dsl_util.hpp"
#include "patterns/rng.hpp"

namespace gpupower::core {
namespace {

namespace dvfs = gpupower::gpusim::dvfs;

}  // namespace

std::vector<gpupower::gpusim::ActivityTotals> replica_activity_variants(
    const gpupower::gpusim::GpuSimulator& sim,
    const ExperimentConfig& experiment,
    std::span<const PatternSpec> phase_patterns,
    const dvfs::WorkloadTimeline& timeline, const gemm::GemmProblem& problem,
    int seed_index, const ActivityMemo* memo) {
  const int max_ref = timeline.max_pattern_index();
  if (max_ref >= static_cast<int>(phase_patterns.size())) {
    throw std::invalid_argument(
        "timeline references phase pattern " + std::to_string(max_ref) +
        " but only " + std::to_string(phase_patterns.size()) +
        " phase pattern(s) are configured");
  }

  std::vector<gpupower::gpusim::ActivityTotals> variants;
  variants.reserve(phase_patterns.size() + 1);
  variants.push_back(working_point_activity(sim, problem, experiment,
                                            experiment.pattern, seed_index,
                                            memo)
                         .totals);
  // Every listed pattern gets its variant (index k -> variant k + 1), with
  // the same replica seed: a phase pattern equal to the base pattern
  // produces bit-identical totals, which the parity tests pin.
  for (const PatternSpec& pattern : phase_patterns) {
    variants.push_back(working_point_activity(sim, problem, experiment,
                                              pattern, seed_index, memo)
                           .totals);
  }
  return variants;
}

std::string validate_replay_knobs(double slice_s, int pstates) {
  // The microsecond floor keeps replay slice counts sane (the replayer
  // additionally hard-caps the slice count as a backstop); the pstates cap
  // keeps a hand-built config from requesting a million-entry table.
  if (!(slice_s >= 1e-6 && slice_s <= 10.0)) {
    return "slice=" + dvfs::detail::format_exact(slice_s) +
           " out of range [1e-6, 10] seconds";
  }
  if (pstates < 1 || pstates > 16) {
    return "pstates=" + std::to_string(pstates) + " out of range [1, 16]";
  }
  return {};
}

std::string validate_dvfs_config(const DvfsConfig& config) {
  if (std::string problem = validate_experiment_config(config.experiment);
      !problem.empty()) {
    return problem;
  }
  if (config.timeline.empty()) return "timeline has no phases";
  if (std::string problem =
          validate_replay_knobs(config.slice_s, config.pstates);
      !problem.empty()) {
    return problem;
  }
  if (std::string problem = dvfs::validate_governor(config.governor);
      !problem.empty()) {
    return "governor: " + problem;
  }
  const int max_pattern = config.timeline.max_pattern_index();
  if (max_pattern >= static_cast<int>(config.phase_patterns.size())) {
    return "timeline references phase pattern " + std::to_string(max_pattern) +
           " but only " + std::to_string(config.phase_patterns.size()) +
           " phase pattern(s) are configured";
  }
  return {};
}

dvfs::ReplayResult run_dvfs_seed_replica(const DvfsConfig& config,
                                         int seed_index,
                                         const ActivityMemo* memo) {
  if (const std::string error = validate_dvfs_config(config); !error.empty()) {
    throw std::invalid_argument("run_dvfs_seed_replica: " + error);
  }

  const gpupower::gpusim::GpuSimulator sim(
      config.experiment.gpu, replica_sim_options(config.experiment,
                                                 seed_index));
  const gemm::GemmProblem problem{config.experiment.n, config.experiment.n,
                                  config.experiment.n, 1.0f, 0.0f,
                                  config.experiment.pattern.transpose_b};
  const std::vector<gpupower::gpusim::ActivityTotals> variants =
      replica_activity_variants(sim, config.experiment,
                                config.phase_patterns, config.timeline,
                                problem, seed_index, memo);

  const dvfs::PStateTable table =
      config.pstates <= 1
          ? dvfs::PStateTable::boost_only(sim.descriptor())
          : dvfs::PStateTable::for_device(sim.descriptor(), config.pstates);
  const dvfs::TimelineReplayer replayer(
      sim.descriptor(), problem, config.experiment.dtype,
      std::span<const gpupower::gpusim::ActivityTotals>(variants), table);
  const auto governor = dvfs::make_governor(config.governor);
  return replayer.replay(config.timeline, *governor, config.slice_s);
}

DvfsResult reduce_dvfs_replicas(
    const DvfsConfig& config,
    std::span<const dvfs::ReplayResult> replicas) {
  analysis::RunningStats energy, avg_power, peak_power, completion, duration;
  analysis::RunningStats backlog_max, mean_backlog, transitions;
  DvfsResult result;

  for (const dvfs::ReplayResult& replica : replicas) {
    energy.add(replica.energy_j);
    avg_power.add(replica.avg_power_w);
    peak_power.add(replica.peak_power_w);
    completion.add(replica.completion_s);
    duration.add(replica.duration_s);
    backlog_max.add(replica.backlog_max_s);
    mean_backlog.add(replica.mean_backlog_s);
    transitions.add(static_cast<double>(replica.transitions));
    result.truncated = result.truncated || replica.truncated;
  }

  result.energy_j = energy.mean();
  result.energy_std_j = energy.stddev();
  result.avg_power_w = avg_power.mean();
  result.peak_power_w = peak_power.mean();
  result.completion_s = completion.mean();
  result.duration_s = duration.mean();
  result.backlog_max_s = backlog_max.mean();
  result.mean_backlog_s = mean_backlog.mean();
  result.transitions = transitions.mean();
  result.seeds = config.experiment.seeds;
  if (!replicas.empty()) result.trace = replicas.front();
  return result;
}

}  // namespace gpupower::core
