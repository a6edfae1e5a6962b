#include "core/report.hpp"

#include "core/pattern_dsl.hpp"
#include "gpusim/device.hpp"

namespace gpupower::core {

analysis::JsonValue to_json(const ExperimentConfig& config,
                            const ExperimentResult& result) {
  using analysis::JsonValue;
  JsonValue rails = JsonValue::object();
  rails.set("fetch_w", JsonValue::number(result.rails.fetch_w))
      .set("operand_w", JsonValue::number(result.rails.operand_w))
      .set("multiply_w", JsonValue::number(result.rails.multiply_w))
      .set("accum_w", JsonValue::number(result.rails.accum_w))
      .set("issue_w", JsonValue::number(result.rails.issue_w));

  JsonValue protocol = JsonValue::object();
  protocol
      .set("n", JsonValue::integer(static_cast<long long>(config.n)))
      .set("seeds", JsonValue::integer(result.seeds))
      .set("iterations",
           JsonValue::integer(
               static_cast<long long>(config.effective_iterations())))
      .set("sampled_tiles",
           JsonValue::integer(
               static_cast<long long>(config.sampling.max_tiles)))
      .set("k_fraction", JsonValue::number(config.sampling.k_fraction));

  JsonValue j = JsonValue::object();
  j.set("gpu", JsonValue::string(gpusim::name(config.gpu)))
      .set("dtype", JsonValue::string(gpupower::numeric::name(config.dtype)))
      .set("pattern", JsonValue::string(to_dsl(config.pattern)))
      .set("power_w", JsonValue::number(result.power_w))
      .set("power_std_w", JsonValue::number(result.power_std_w))
      .set("iteration_s", JsonValue::number(result.iteration_s))
      .set("energy_per_iter_j", JsonValue::number(result.energy_per_iter_j))
      .set("alignment", JsonValue::number(result.alignment))
      .set("weight_fraction", JsonValue::number(result.weight_fraction))
      .set("throttled", JsonValue::boolean(result.throttled))
      .set("clock_frac", JsonValue::number(result.clock_frac))
      .set("rails", std::move(rails))
      .set("protocol", std::move(protocol));
  return j;
}

analysis::JsonValue dvfs_to_json(const DvfsConfig& config,
                                 const DvfsResult& result) {
  using analysis::JsonValue;
  JsonValue trace = JsonValue::array();
  for (const auto& slice : result.trace.slices) {
    JsonValue point = JsonValue::object();
    point.set("t_s", JsonValue::number(slice.t_s))
        .set("offered", JsonValue::number(slice.offered))
        .set("utilization", JsonValue::number(slice.utilization))
        .set("pstate", JsonValue::integer(slice.pstate))
        .set("clock_frac", JsonValue::number(slice.clock_frac))
        .set("power_w", JsonValue::number(slice.power_w))
        .set("backlog_s", JsonValue::number(slice.backlog_s));
    trace.push(std::move(point));
  }

  JsonValue j = JsonValue::object();
  j.set("gpu", JsonValue::string(gpusim::name(config.experiment.gpu)))
      .set("dtype",
           JsonValue::string(gpupower::numeric::name(config.experiment.dtype)))
      .set("pattern", JsonValue::string(to_dsl(config.experiment.pattern)))
      .set("governor", JsonValue::string(gpusim::dvfs::to_dsl(config.governor)))
      .set("slice_s", JsonValue::number(config.slice_s))
      .set("pstates", JsonValue::integer(config.pstates))
      .set("timeline_duration_s",
           JsonValue::number(config.timeline.duration_s()))
      .set("seeds", JsonValue::integer(result.seeds))
      .set("energy_j", JsonValue::number(result.energy_j))
      .set("energy_std_j", JsonValue::number(result.energy_std_j))
      .set("avg_power_w", JsonValue::number(result.avg_power_w))
      .set("peak_power_w", JsonValue::number(result.peak_power_w))
      .set("completion_s", JsonValue::number(result.completion_s))
      .set("duration_s", JsonValue::number(result.duration_s))
      .set("backlog_max_s", JsonValue::number(result.backlog_max_s))
      .set("mean_backlog_s", JsonValue::number(result.mean_backlog_s))
      .set("transitions", JsonValue::number(result.transitions))
      .set("truncated", JsonValue::boolean(result.truncated))
      .set("trace", std::move(trace));
  return j;
}

analysis::JsonValue fleet_to_json(const FleetConfig& config,
                                  const FleetResult& result) {
  using analysis::JsonValue;
  namespace fleet = gpupower::gpusim::fleet;

  JsonValue timelines = JsonValue::array();
  for (const auto& timeline : config.timelines) {
    timelines.push(
        JsonValue::string(gpupower::gpusim::dvfs::to_dsl(timeline)));
  }

  JsonValue devices = JsonValue::array();
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    const FleetDeviceConfig& device = config.devices[i];
    JsonValue entry = JsonValue::object();
    entry.set("gpu", JsonValue::string(gpusim::name(device.gpu)))
        .set("governor", JsonValue::string(
                             gpupower::gpusim::dvfs::to_dsl(device.governor)))
        .set("timeline", JsonValue::integer(device.timeline))
        .set("priority", JsonValue::integer(device.priority));
    if (i < result.devices.size()) {
      const FleetDeviceSummary& summary = result.devices[i];
      entry.set("energy_j", JsonValue::number(summary.energy_j))
          .set("avg_power_w", JsonValue::number(summary.avg_power_w))
          .set("peak_power_w", JsonValue::number(summary.peak_power_w))
          .set("completion_s", JsonValue::number(summary.completion_s))
          .set("backlog_max_s", JsonValue::number(summary.backlog_max_s))
          .set("mean_backlog_s", JsonValue::number(summary.mean_backlog_s))
          .set("transitions", JsonValue::number(summary.transitions))
          .set("peak_temperature_c",
               JsonValue::number(summary.peak_temperature_c))
          .set("throttled_slices",
               JsonValue::number(summary.throttled_slices))
          .set("budget_clamped_slices",
               JsonValue::number(summary.budget_clamped_slices));
    }
    // Seed 0's per-slice trace for the device: the standard replay columns
    // plus the fleet-only temperature/budget series when present.
    if (i < result.trace.devices.size()) {
      const fleet::FleetDeviceRun& run = result.trace.devices[i];
      JsonValue trace = JsonValue::array();
      for (std::size_t s = 0; s < run.replay.slices.size(); ++s) {
        const auto& slice = run.replay.slices[s];
        JsonValue point = JsonValue::object();
        point.set("t_s", JsonValue::number(slice.t_s))
            .set("utilization", JsonValue::number(slice.utilization))
            .set("pstate", JsonValue::integer(slice.pstate))
            .set("power_w", JsonValue::number(slice.power_w))
            .set("backlog_s", JsonValue::number(slice.backlog_s));
        if (s < run.temperature_c.size()) {
          point.set("temperature_c",
                    JsonValue::number(run.temperature_c[s]));
        }
        if (s < run.budget_w.size()) {
          point.set("budget_w", JsonValue::number(run.budget_w[s]));
        }
        trace.push(std::move(point));
      }
      entry.set("trace", std::move(trace));
    }
    devices.push(std::move(entry));
  }

  JsonValue fleet_power = JsonValue::array();
  for (const double power_w : result.trace.fleet_power_w) {
    fleet_power.push(JsonValue::number(power_w));
  }

  JsonValue thermal = JsonValue::object();
  thermal.set("enabled", JsonValue::boolean(config.thermal.enabled));
  if (config.thermal.enabled) {
    thermal.set("ambient_c", JsonValue::number(config.thermal.ambient_c))
        .set("tau_s", JsonValue::number(config.thermal.tau_s))
        .set("trip_c", JsonValue::number(config.thermal.trip_c))
        .set("release_c", JsonValue::number(config.thermal.release_c))
        .set("throttle_pstate",
             JsonValue::integer(config.thermal.throttle_pstate));
  }

  JsonValue j = JsonValue::object();
  j.set("dtype",
        JsonValue::string(gpupower::numeric::name(config.experiment.dtype)))
      .set("pattern", JsonValue::string(to_dsl(config.experiment.pattern)))
      .set("allocator",
           JsonValue::string(fleet::name(config.allocator.policy)))
      .set("cap_w", config.allocator.capped()
                        ? JsonValue::number(config.allocator.cap_w)
                        : JsonValue::null())
      .set("thermal", std::move(thermal))
      .set("slice_s", JsonValue::number(config.slice_s))
      .set("pstates", JsonValue::integer(config.pstates))
      .set("timelines", std::move(timelines))
      .set("seeds", JsonValue::integer(result.seeds))
      .set("energy_j", JsonValue::number(result.energy_j))
      .set("energy_std_j", JsonValue::number(result.energy_std_j))
      .set("avg_power_w", JsonValue::number(result.avg_power_w))
      .set("peak_power_w", JsonValue::number(result.peak_power_w))
      .set("completion_s", JsonValue::number(result.completion_s))
      .set("duration_s", JsonValue::number(result.duration_s))
      .set("backlog_max_s", JsonValue::number(result.backlog_max_s))
      .set("backlog_p99_s", JsonValue::number(result.backlog_p99_s))
      .set("mean_backlog_s", JsonValue::number(result.mean_backlog_s))
      .set("transitions", JsonValue::number(result.transitions))
      .set("over_cap_slices", JsonValue::number(result.over_cap_slices))
      .set("truncated", JsonValue::boolean(result.truncated))
      .set("devices", std::move(devices))
      .set("fleet_power_w", std::move(fleet_power));
  return j;
}

}  // namespace gpupower::core
