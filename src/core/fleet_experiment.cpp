#include "core/fleet_experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stats.hpp"
#include "gpusim/dvfs/dsl_util.hpp"
#include "gpusim/simulator.hpp"
#include "patterns/rng.hpp"

namespace gpupower::core {
namespace {

namespace dvfs = gpupower::gpusim::dvfs;
namespace fleet = gpupower::gpusim::fleet;

/// The timeline whose phases reference the largest pattern index — the one
/// replica_activity_variants validates the variant table against.
const dvfs::WorkloadTimeline& widest_timeline(const FleetConfig& config) {
  const dvfs::WorkloadTimeline* widest = &config.timelines.front();
  int max_ref = widest->max_pattern_index();
  for (const dvfs::WorkloadTimeline& timeline : config.timelines) {
    const int ref = timeline.max_pattern_index();
    if (ref > max_ref) {
      max_ref = ref;
      widest = &timeline;
    }
  }
  return *widest;
}

/// Quantile by linear interpolation between order statistics (the
/// numpy-default "linear" method); q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace

std::string validate_fleet_config(const FleetConfig& config) {
  if (std::string problem = validate_experiment_config(config.experiment);
      !problem.empty()) {
    return problem;
  }
  if (config.devices.empty()) return "fleet has no devices";
  if (config.timelines.empty()) return "fleet has no timelines";
  for (std::size_t i = 0; i < config.timelines.size(); ++i) {
    if (config.timelines[i].empty()) {
      return "timeline " + std::to_string(i) + " has no phases";
    }
    const int max_ref = config.timelines[i].max_pattern_index();
    if (max_ref >= static_cast<int>(config.phase_patterns.size())) {
      return "timeline " + std::to_string(i) + " references phase pattern " +
             std::to_string(max_ref) + " but only " +
             std::to_string(config.phase_patterns.size()) +
             " phase pattern(s) are configured";
    }
  }
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    const int timeline = config.devices[i].timeline;
    if (timeline < 0 ||
        timeline >= static_cast<int>(config.timelines.size())) {
      return "device " + std::to_string(i) + " references timeline " +
             std::to_string(timeline) + " but only " +
             std::to_string(config.timelines.size()) +
             " timeline(s) are configured";
    }
    if (std::string problem =
            dvfs::validate_governor(config.devices[i].governor);
        !problem.empty()) {
      return "device " + std::to_string(i) + " governor: " + problem;
    }
  }
  if (std::string problem =
          validate_replay_knobs(config.slice_s, config.pstates);
      !problem.empty()) {
    return problem;
  }
  if (!(config.allocator.cap_w > 0.0)) {
    return "allocator cap must be positive (infinity = uncapped)";
  }
  if (config.thermal.enabled) {
    // The key carries these only when enabled, and prints a non-finite
    // double as JSON null, so each must be finite.
    const std::pair<const char*, double> keyed[] = {
        {"ambient_c", config.thermal.ambient_c},
        {"tau_s", config.thermal.tau_s},
        {"trip_c", config.thermal.trip_c},
        {"release_c", config.thermal.release_c},
        {"initial_c", config.thermal.initial_c}};
    for (const auto& [field, value] : keyed) {
      if (!std::isfinite(value)) {
        return "thermal." + std::string(field) + "=" +
               dvfs::detail::format_exact(value) + " must be finite";
      }
    }
    if (!(config.thermal.tau_s > 0.0)) return "thermal tau must be > 0";
    if (!(config.thermal.trip_c > config.thermal.release_c)) {
      return "thermal trip temperature must exceed the release temperature "
             "(the hysteresis gap prevents throttle flapping)";
    }
  }
  return {};
}

fleet::FleetRun run_fleet_seed_replica(const FleetConfig& config,
                                       int seed_index,
                                       const ActivityMemo* memo) {
  const std::string problem_text = validate_fleet_config(config);
  if (!problem_text.empty()) {
    throw std::invalid_argument("run_fleet_seed_replica: " + problem_text);
  }

  const gemm::GemmProblem problem{config.experiment.n, config.experiment.n,
                                  config.experiment.n, 1.0f, 0.0f,
                                  config.experiment.pattern.transpose_b};
  // Activity once per seed, shared across every device: the walk depends
  // on the inputs, the tile config (dtype), and the sampling plan — not on
  // which GPU model consumes the totals (the remaining panel-reuse item
  // from the PR 3 note, closed here by construction).
  const gpupower::gpusim::GpuSimulator activity_sim(
      config.experiment.gpu, replica_sim_options(config.experiment,
                                                 seed_index));
  const std::vector<gpupower::gpusim::ActivityTotals> variants =
      replica_activity_variants(activity_sim, config.experiment,
                                config.phase_patterns,
                                widest_timeline(config), problem, seed_index,
                                memo);
  const std::span<const gpupower::gpusim::ActivityTotals> variant_span(
      variants);

  // Per-device replayers: descriptor (with per-seed variation — device 0
  // keeps the experiment's instance so a one-device fleet matches the DVFS
  // pipeline bit for bit; further devices land on distinct silicon),
  // P-state table, and per-variant steady-state reports.
  std::vector<dvfs::TimelineReplayer> replayers;
  std::vector<std::unique_ptr<dvfs::Governor>> governors;
  replayers.reserve(config.devices.size());
  governors.reserve(config.devices.size());
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    const FleetDeviceConfig& device = config.devices[i];
    gpupower::gpusim::SimOptions options =
        replica_sim_options(config.experiment, seed_index);
    if (options.variation && i > 0) {
      options.variation->instance = patterns::derive_seed(
          patterns::derive_seed(options.variation->instance, 0xF1EE7u),
          static_cast<std::uint64_t>(i));
    }
    const gpupower::gpusim::GpuSimulator sim(device.gpu, options);
    const dvfs::PStateTable table =
        config.pstates <= 1
            ? dvfs::PStateTable::boost_only(sim.descriptor())
            : dvfs::PStateTable::for_device(sim.descriptor(), config.pstates);
    replayers.emplace_back(sim.descriptor(), problem,
                           config.experiment.dtype, variant_span, table);
    governors.push_back(dvfs::make_governor(device.governor));
  }

  std::vector<fleet::FleetSimulator::Device> devices;
  devices.reserve(config.devices.size());
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    fleet::FleetSimulator::Device device;
    device.replayer = &replayers[i];
    device.timeline = &config.timelines[static_cast<std::size_t>(
        config.devices[i].timeline)];
    device.governor = governors[i].get();
    device.priority = config.devices[i].priority;
    devices.push_back(device);
  }

  const fleet::FleetSimulator simulator(config.allocator, config.thermal);
  return simulator.run(devices, config.slice_s);
}

FleetResult reduce_fleet_replicas(
    const FleetConfig& config,
    std::span<const fleet::FleetRun> replicas) {
  analysis::RunningStats energy, avg_power, peak_power, completion, duration;
  analysis::RunningStats backlog_max, backlog_p99, mean_backlog, transitions,
      over_cap;
  FleetResult result;
  result.devices.resize(config.devices.size());
  std::vector<analysis::RunningStats> dev_energy(config.devices.size());
  std::vector<analysis::RunningStats> dev_avg(config.devices.size());
  std::vector<analysis::RunningStats> dev_peak(config.devices.size());
  std::vector<analysis::RunningStats> dev_completion(config.devices.size());
  std::vector<analysis::RunningStats> dev_backlog_max(config.devices.size());
  std::vector<analysis::RunningStats> dev_mean_backlog(config.devices.size());
  std::vector<analysis::RunningStats> dev_transitions(config.devices.size());
  std::vector<analysis::RunningStats> dev_temp(config.devices.size());
  std::vector<analysis::RunningStats> dev_throttled(config.devices.size());
  std::vector<analysis::RunningStats> dev_clamped(config.devices.size());

  for (const fleet::FleetRun& replica : replicas) {
    energy.add(replica.energy_j);
    avg_power.add(replica.avg_power_w);
    peak_power.add(replica.peak_power_w);
    completion.add(replica.completion_s);
    duration.add(replica.duration_s);
    backlog_max.add(replica.backlog_max_s);
    {
      std::vector<double> device_worst;
      device_worst.reserve(replica.devices.size());
      for (const fleet::FleetDeviceRun& device : replica.devices) {
        device_worst.push_back(device.replay.backlog_max_s);
      }
      backlog_p99.add(quantile(std::move(device_worst), 0.99));
    }
    mean_backlog.add(replica.mean_backlog_s);
    transitions.add(static_cast<double>(replica.transitions));
    over_cap.add(static_cast<double>(replica.over_cap_slices));
    result.truncated = result.truncated || replica.truncated;
    for (std::size_t i = 0;
         i < replica.devices.size() && i < result.devices.size(); ++i) {
      const fleet::FleetDeviceRun& device = replica.devices[i];
      dev_energy[i].add(device.replay.energy_j);
      dev_avg[i].add(device.replay.avg_power_w);
      dev_peak[i].add(device.replay.peak_power_w);
      dev_completion[i].add(device.replay.completion_s);
      dev_backlog_max[i].add(device.replay.backlog_max_s);
      dev_mean_backlog[i].add(device.replay.mean_backlog_s);
      dev_transitions[i].add(static_cast<double>(device.replay.transitions));
      dev_temp[i].add(device.peak_temperature_c);
      dev_throttled[i].add(static_cast<double>(device.throttled_slices));
      dev_clamped[i].add(static_cast<double>(device.budget_clamped_slices));
    }
  }

  result.energy_j = energy.mean();
  result.energy_std_j = energy.stddev();
  result.avg_power_w = avg_power.mean();
  result.peak_power_w = peak_power.mean();
  result.completion_s = completion.mean();
  result.duration_s = duration.mean();
  result.backlog_max_s = backlog_max.mean();
  result.backlog_p99_s = backlog_p99.mean();
  result.mean_backlog_s = mean_backlog.mean();
  result.transitions = transitions.mean();
  result.over_cap_slices = over_cap.mean();
  result.seeds = config.experiment.seeds;
  for (std::size_t i = 0; i < result.devices.size(); ++i) {
    FleetDeviceSummary& device = result.devices[i];
    device.energy_j = dev_energy[i].mean();
    device.avg_power_w = dev_avg[i].mean();
    device.peak_power_w = dev_peak[i].mean();
    device.completion_s = dev_completion[i].mean();
    device.backlog_max_s = dev_backlog_max[i].mean();
    device.mean_backlog_s = dev_mean_backlog[i].mean();
    device.transitions = dev_transitions[i].mean();
    device.peak_temperature_c = dev_temp[i].mean();
    device.throttled_slices = dev_throttled[i].mean();
    device.budget_clamped_slices = dev_clamped[i].mean();
  }
  if (!replicas.empty()) result.trace = replicas.front();
  return result;
}

}  // namespace gpupower::core
