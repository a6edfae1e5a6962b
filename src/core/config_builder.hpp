// ExperimentConfigBuilder: fluent, validating construction of
// ExperimentConfig — the front door of the ExperimentEngine API.  Composes
// GPU model, datatype, problem size, seeds, and the input pattern given
// either as a PatternSpec or as a pattern-DSL string (core/pattern_dsl.hpp),
// so callers never hand-assemble configs or hand-parse DSL.
//
//   const auto config = ExperimentConfigBuilder()
//                           .gpu(gpusim::GpuModel::kA100PCIe)
//                           .dtype("fp16t")
//                           .n(2048)
//                           .seeds(10)
//                           .pattern("gaussian(sigma=210) | sparsity(25%)")
//                           .build();
//
// Errors are collected rather than thrown: check `valid()` / `error()`, or
// use `try_build()`.  Setters record only parse errors (bad DSL, unknown
// dtype names); ranges are checked once, on the assembled config, by
// validate_experiment_config.  error() is the first parse error, else the
// validator's first problem.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "core/dvfs_experiment.hpp"
#include "core/experiment.hpp"
#include "core/fleet_experiment.hpp"

namespace gpupower::core {

class ExperimentConfigBuilder {
 public:
  ExperimentConfigBuilder() = default;

  ExperimentConfigBuilder& gpu(gpupower::gpusim::GpuModel model);
  ExperimentConfigBuilder& dtype(gpupower::numeric::DType dtype);
  /// Parses "fp32" / "fp16" / "fp16t" / "int8"; unknown names record an
  /// error.
  ExperimentConfigBuilder& dtype(std::string_view name);
  ExperimentConfigBuilder& n(std::size_t n);
  ExperimentConfigBuilder& seeds(int seeds);
  /// 0 keeps the paper default (20k FP16-T, 10k others).
  ExperimentConfigBuilder& iterations(std::size_t iterations);
  ExperimentConfigBuilder& base_seed(std::uint64_t seed);
  ExperimentConfigBuilder& pattern(const PatternSpec& spec);
  /// Parses a pattern-DSL string; parse failures record the parser's
  /// message and byte offset.
  ExperimentConfigBuilder& pattern(std::string_view dsl);
  ExperimentConfigBuilder& sampling(const gpupower::gpusim::SamplingPlan& plan);
  ExperimentConfigBuilder& sampler(const telemetry::SamplerConfig& config);
  ExperimentConfigBuilder& variation(
      const gpupower::gpusim::ProcessVariation& variation);

  [[nodiscard]] bool valid() const noexcept;
  /// First parse error, else validate_experiment_config's; empty when
  /// valid().
  [[nodiscard]] std::string error() const;

  /// The assembled config.  Call only when valid(); on an invalid builder
  /// this still returns the partially-assembled config, so prefer
  /// try_build() when the inputs are untrusted.
  [[nodiscard]] ExperimentConfig build() const& { return config_; }
  /// Moves the config out of a builder that is done with it.
  [[nodiscard]] ExperimentConfig build() && { return std::move(config_); }
  /// std::nullopt when any setter recorded an error.
  [[nodiscard]] std::optional<ExperimentConfig> try_build() const;

 private:
  void fail(std::string message);

  ExperimentConfig config_;
  std::string error_;
};

/// Fluent, validating construction of DvfsConfig — the front door of the
/// DVFS timeline API.  Wraps an ExperimentConfig (hand over a built one, or
/// inherit the builder's defaults) and adds the governor, timeline, slice,
/// and P-state knobs, with the governor and timeline DSLs parsed and
/// validated in place.  Error handling matches ExperimentConfigBuilder:
/// first parse error, else validate_dvfs_config's first problem.
///
///   const auto config = DvfsConfigBuilder()
///                           .experiment(experiment_config)
///                           .governor("utilization(up=80%, down=30%)")
///                           .timeline("burst(period=0.2, duty=30%, dur=2)")
///                           .slice(0.01)
///                           .pstates(5)
///                           .build();
class DvfsConfigBuilder {
 public:
  DvfsConfigBuilder() = default;

  DvfsConfigBuilder& experiment(const ExperimentConfig& config);
  DvfsConfigBuilder& governor(const gpupower::gpusim::dvfs::GovernorConfig& config);
  /// Parses the governor DSL (fixed | utilization | oracle).
  DvfsConfigBuilder& governor(std::string_view dsl);
  DvfsConfigBuilder& timeline(const gpupower::gpusim::dvfs::WorkloadTimeline& timeline);
  /// Parses the timeline DSL (constant | idle | burst | ramp stages).
  DvfsConfigBuilder& timeline(std::string_view dsl);
  /// Appends a phase pattern the timeline references by index (the DSL's
  /// `pattern=K` stage key; K is the append order).
  DvfsConfigBuilder& add_phase_pattern(const PatternSpec& spec);
  /// Parses a pattern-DSL string and appends it.
  DvfsConfigBuilder& add_phase_pattern(std::string_view dsl);
  /// Replay time step in seconds, [1e-6, 10].
  DvfsConfigBuilder& slice(double slice_s);
  /// P-state table depth, [1, 16]; 1 is the DVFS-disabled degenerate case.
  DvfsConfigBuilder& pstates(int count);

  /// A timeline is required: a builder that never received one is invalid
  /// (there is no sensible default workload to replay).  A timeline phase
  /// referencing a pattern index beyond the added phase patterns is a
  /// dangling cross-reference, also invalid.
  [[nodiscard]] bool valid() const noexcept;
  [[nodiscard]] std::string error() const;

  [[nodiscard]] DvfsConfig build() const& { return config_; }
  [[nodiscard]] DvfsConfig build() && { return std::move(config_); }
  [[nodiscard]] std::optional<DvfsConfig> try_build() const;

 private:
  void fail(std::string message);

  DvfsConfig config_;
  std::string error_;
};

/// Fluent, validating construction of FleetConfig — the front door of the
/// fleet power-capping API.  Wraps an ExperimentConfig (the shared working
/// point), collects timelines and devices by append order, and adds the
/// allocator/cap, thermal model, and replay knobs, with every DSL parsed
/// and validated in place.  Error handling matches the other builders:
/// first parse error, else validate_fleet_config's first problem.
///
///   const auto config = FleetConfigBuilder()
///                           .experiment(experiment_config)
///                           .add_timeline("burst(period=0.4, duty=30%, dur=2)")
///                           .add_device(gpusim::GpuModel::kA100PCIe,
///                                       "utilization(up=80%, down=30%)")
///                           .add_device(gpusim::GpuModel::kA100PCIe,
///                                       "utilization(up=80%, down=30%)")
///                           .allocator("proportional")
///                           .cap(450.0)
///                           .thermal(thermal_config)
///                           .build();
class FleetConfigBuilder {
 public:
  FleetConfigBuilder() = default;

  FleetConfigBuilder& experiment(const ExperimentConfig& config);
  /// Appends a timeline; devices reference timelines by append order.
  FleetConfigBuilder& add_timeline(
      const gpupower::gpusim::dvfs::WorkloadTimeline& timeline);
  FleetConfigBuilder& add_timeline(std::string_view dsl);
  FleetConfigBuilder& add_device(const FleetDeviceConfig& device);
  /// Appends a device with its governor given as DSL; `timeline` indexes
  /// the add_timeline order.
  FleetConfigBuilder& add_device(gpupower::gpusim::GpuModel gpu,
                                 std::string_view governor_dsl,
                                 int timeline = 0, int priority = 0);
  /// Appends `count` identical devices, each replaying its own copy of
  /// `timeline` delayed by i * stagger_s (an idle prefix) with priority
  /// count - i — the phase-shifted fleet shape where allocation policy
  /// actually matters (synchronised bursts degenerate every allocator to
  /// uniform).  The spec "staggered" block expands through it, so specs
  /// and C++ callers mean the same thing by "a staggered fleet".
  FleetConfigBuilder& add_staggered_devices(
      const gpupower::gpusim::dvfs::WorkloadTimeline& timeline, int count,
      double stagger_s, gpupower::gpusim::GpuModel gpu,
      std::string_view governor_dsl);
  FleetConfigBuilder& allocator(
      const gpupower::gpusim::fleet::AllocatorConfig& config);
  /// Parses "uniform" | "proportional" | "priority" | "greedy" (keeps the
  /// current cap).
  FleetConfigBuilder& allocator(std::string_view policy);
  /// Shared fleet power cap in watts; infinity = uncapped.
  FleetConfigBuilder& cap(double cap_w);
  FleetConfigBuilder& thermal(
      const gpupower::gpusim::fleet::ThermalConfig& config);
  /// Appends a phase pattern every timeline can reference by index.
  FleetConfigBuilder& add_phase_pattern(const PatternSpec& spec);
  FleetConfigBuilder& add_phase_pattern(std::string_view dsl);
  /// Replay time step in seconds, [1e-6, 10].
  FleetConfigBuilder& slice(double slice_s);
  /// P-state table depth, [1, 16].
  FleetConfigBuilder& pstates(int count);

  /// Valid iff no setter recorded an error and validate_fleet_config
  /// accepts the assembled config.
  [[nodiscard]] bool valid() const noexcept;
  [[nodiscard]] std::string error() const;

  [[nodiscard]] FleetConfig build() const& { return config_; }
  [[nodiscard]] FleetConfig build() && { return std::move(config_); }
  [[nodiscard]] std::optional<FleetConfig> try_build() const;

 private:
  void fail(std::string message);

  FleetConfig config_;
  std::string error_;
};

}  // namespace gpupower::core
