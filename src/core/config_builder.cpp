#include "core/config_builder.hpp"

#include "core/pattern_dsl.hpp"

namespace gpupower::core {

void ExperimentConfigBuilder::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

ExperimentConfigBuilder& ExperimentConfigBuilder::gpu(
    gpupower::gpusim::GpuModel model) {
  config_.gpu = model;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::dtype(
    gpupower::numeric::DType dtype) {
  config_.dtype = dtype;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::dtype(std::string_view name) {
  gpupower::numeric::DType parsed;
  if (!gpupower::numeric::parse_dtype(name, parsed)) {
    fail("unknown dtype '" + std::string(name) +
         "' (expected fp32 | fp16 | fp16t | int8)");
    return *this;
  }
  config_.dtype = parsed;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::n(std::size_t n) {
  config_.n = n;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::seeds(int seeds) {
  config_.seeds = seeds;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::iterations(
    std::size_t iterations) {
  config_.iterations = iterations;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::base_seed(
    std::uint64_t seed) {
  config_.base_seed = seed;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::pattern(
    const PatternSpec& spec) {
  config_.pattern = spec;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::pattern(
    std::string_view dsl) {
  const ParseResult parsed = parse_pattern(dsl);
  if (!parsed.ok) {
    fail("pattern DSL error at offset " + std::to_string(parsed.error_pos) +
         ": " + parsed.error);
    return *this;
  }
  config_.pattern = parsed.spec;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::sampling(
    const gpupower::gpusim::SamplingPlan& plan) {
  config_.sampling = plan;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::sampler(
    const telemetry::SamplerConfig& config) {
  config_.sampler = config;
  return *this;
}

ExperimentConfigBuilder& ExperimentConfigBuilder::variation(
    const gpupower::gpusim::ProcessVariation& variation) {
  config_.variation = variation;
  return *this;
}

bool ExperimentConfigBuilder::valid() const noexcept {
  return error_.empty() && validate_experiment_config(config_).empty();
}

std::string ExperimentConfigBuilder::error() const {
  if (!error_.empty()) return error_;
  return validate_experiment_config(config_);
}

std::optional<ExperimentConfig> ExperimentConfigBuilder::try_build() const {
  if (!valid()) return std::nullopt;
  return config_;
}

void DvfsConfigBuilder::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

DvfsConfigBuilder& DvfsConfigBuilder::experiment(
    const ExperimentConfig& config) {
  config_.experiment = config;
  return *this;
}

DvfsConfigBuilder& DvfsConfigBuilder::governor(
    const gpupower::gpusim::dvfs::GovernorConfig& config) {
  config_.governor = config;
  return *this;
}

DvfsConfigBuilder& DvfsConfigBuilder::governor(std::string_view dsl) {
  const auto parsed = gpupower::gpusim::dvfs::parse_governor(dsl);
  if (!parsed.ok) {
    fail("governor DSL error at offset " + std::to_string(parsed.error_pos) +
         ": " + parsed.error);
    return *this;
  }
  config_.governor = parsed.config;
  return *this;
}

DvfsConfigBuilder& DvfsConfigBuilder::timeline(
    const gpupower::gpusim::dvfs::WorkloadTimeline& timeline) {
  config_.timeline = timeline;
  return *this;
}

DvfsConfigBuilder& DvfsConfigBuilder::timeline(std::string_view dsl) {
  const auto parsed = gpupower::gpusim::dvfs::parse_timeline(dsl);
  if (!parsed.ok) {
    fail("timeline DSL error at offset " + std::to_string(parsed.error_pos) +
         ": " + parsed.error);
    return *this;
  }
  config_.timeline = parsed.timeline;
  return *this;
}

DvfsConfigBuilder& DvfsConfigBuilder::add_phase_pattern(
    const PatternSpec& spec) {
  config_.phase_patterns.push_back(spec);
  return *this;
}

DvfsConfigBuilder& DvfsConfigBuilder::add_phase_pattern(std::string_view dsl) {
  const ParseResult parsed = parse_pattern(dsl);
  if (!parsed.ok) {
    fail("phase pattern DSL error at offset " +
         std::to_string(parsed.error_pos) + ": " + parsed.error);
    return *this;
  }
  config_.phase_patterns.push_back(parsed.spec);
  return *this;
}

DvfsConfigBuilder& DvfsConfigBuilder::slice(double slice_s) {
  config_.slice_s = slice_s;
  return *this;
}

DvfsConfigBuilder& DvfsConfigBuilder::pstates(int count) {
  config_.pstates = count;
  return *this;
}

bool DvfsConfigBuilder::valid() const noexcept {
  return error_.empty() && validate_dvfs_config(config_).empty();
}

std::string DvfsConfigBuilder::error() const {
  if (!error_.empty()) return error_;
  return validate_dvfs_config(config_);
}

std::optional<DvfsConfig> DvfsConfigBuilder::try_build() const {
  if (!valid()) return std::nullopt;
  return config_;
}

void FleetConfigBuilder::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

FleetConfigBuilder& FleetConfigBuilder::experiment(
    const ExperimentConfig& config) {
  config_.experiment = config;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::add_timeline(
    const gpupower::gpusim::dvfs::WorkloadTimeline& timeline) {
  config_.timelines.push_back(timeline);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::add_timeline(std::string_view dsl) {
  const auto parsed = gpupower::gpusim::dvfs::parse_timeline(dsl);
  if (!parsed.ok) {
    fail("timeline DSL error at offset " + std::to_string(parsed.error_pos) +
         ": " + parsed.error);
    return *this;
  }
  config_.timelines.push_back(parsed.timeline);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::add_device(
    const FleetDeviceConfig& device) {
  config_.devices.push_back(device);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::add_device(
    gpupower::gpusim::GpuModel gpu, std::string_view governor_dsl,
    int timeline, int priority) {
  const auto parsed = gpupower::gpusim::dvfs::parse_governor(governor_dsl);
  if (!parsed.ok) {
    fail("governor DSL error at offset " + std::to_string(parsed.error_pos) +
         ": " + parsed.error);
    return *this;
  }
  FleetDeviceConfig device;
  device.gpu = gpu;
  device.governor = parsed.config;
  device.timeline = timeline;
  device.priority = priority;
  config_.devices.push_back(device);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::add_staggered_devices(
    const gpupower::gpusim::dvfs::WorkloadTimeline& timeline, int count,
    double stagger_s, gpupower::gpusim::GpuModel gpu,
    std::string_view governor_dsl) {
  if (count < 1 || count > 256) {
    fail("staggered device count " + std::to_string(count) +
         " out of range [1, 256]");
    return *this;
  }
  if (stagger_s < 0.0) {
    fail("stagger must be non-negative");
    return *this;
  }
  // One parse for the block: every device runs the same governor.
  const auto governor = gpupower::gpusim::dvfs::parse_governor(governor_dsl);
  if (!governor.ok) {
    fail("governor DSL error at offset " + std::to_string(governor.error_pos) +
         ": " + governor.error);
    return *this;
  }
  const int base = static_cast<int>(config_.timelines.size());
  for (int i = 0; i < count; ++i) {
    gpupower::gpusim::dvfs::WorkloadTimeline shifted;
    if (i > 0 && stagger_s > 0.0) {
      shifted = gpupower::gpusim::dvfs::WorkloadTimeline::idle(
          static_cast<double>(i) * stagger_s);
    }
    shifted.append(timeline);
    config_.timelines.push_back(std::move(shifted));
    FleetDeviceConfig device;
    device.gpu = gpu;
    device.governor = governor.config;
    device.timeline = base + i;
    device.priority = count - i;
    config_.devices.push_back(device);
  }
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::allocator(
    const gpupower::gpusim::fleet::AllocatorConfig& config) {
  config_.allocator = config;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::allocator(std::string_view policy) {
  gpupower::gpusim::fleet::AllocatorConfig::Policy parsed;
  if (!gpupower::gpusim::fleet::parse_allocator_policy(policy, parsed)) {
    fail("unknown allocator '" + std::string(policy) +
         "' (expected uniform | proportional | priority | greedy)");
    return *this;
  }
  config_.allocator.policy = parsed;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::cap(double cap_w) {
  config_.allocator.cap_w = cap_w;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::thermal(
    const gpupower::gpusim::fleet::ThermalConfig& config) {
  config_.thermal = config;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::add_phase_pattern(
    const PatternSpec& spec) {
  config_.phase_patterns.push_back(spec);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::add_phase_pattern(
    std::string_view dsl) {
  const ParseResult parsed = parse_pattern(dsl);
  if (!parsed.ok) {
    fail("phase pattern DSL error at offset " +
         std::to_string(parsed.error_pos) + ": " + parsed.error);
    return *this;
  }
  config_.phase_patterns.push_back(parsed.spec);
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::slice(double slice_s) {
  config_.slice_s = slice_s;
  return *this;
}

FleetConfigBuilder& FleetConfigBuilder::pstates(int count) {
  config_.pstates = count;
  return *this;
}

bool FleetConfigBuilder::valid() const noexcept {
  return error_.empty() && validate_fleet_config(config_).empty();
}

std::string FleetConfigBuilder::error() const {
  if (!error_.empty()) return error_;
  return validate_fleet_config(config_);
}

std::optional<FleetConfig> FleetConfigBuilder::try_build() const {
  if (!valid()) return std::nullopt;
  return config_;
}

}  // namespace gpupower::core
