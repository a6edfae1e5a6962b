// ExperimentRunner: reproduces the paper's measurement protocol end to end.
// For each seed replica it builds the spec'd inputs, simulates the GEMM
// kernel's power, replays the run through the DCGM-like sampler (100 ms
// samples, 500 ms warmup trim), and averages the reported power across
// seeds — exactly the pipeline behind every figure in Section IV.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "core/pattern_spec.hpp"
#include "gpusim/power.hpp"
#include "gpusim/simulator.hpp"
#include "telemetry/sampler.hpp"

namespace gpupower::core {

class ActivityMemo;

struct ExperimentConfig {
  gpupower::gpusim::GpuModel gpu = gpupower::gpusim::GpuModel::kA100PCIe;
  gpupower::numeric::DType dtype = gpupower::numeric::DType::kFP16;
  std::size_t n = 2048;
  PatternSpec pattern;
  int seeds = 10;           ///< paper: 10 seeds per configuration
  std::size_t iterations = 0;  ///< 0 = paper default (20k FP16-T, 10k others)
  std::uint64_t base_seed = 42;
  gpupower::gpusim::SamplingPlan sampling;  ///< exact by default
  telemetry::SamplerConfig sampler;
  std::optional<gpupower::gpusim::ProcessVariation> variation;

  [[nodiscard]] std::size_t effective_iterations() const noexcept {
    if (iterations != 0) return iterations;
    return dtype == gpupower::numeric::DType::kFP16T ? 20000 : 10000;
  }
};

/// Accepted ranges of the ExperimentConfig fields.  validate_experiment_config
/// is their one check, so a config is submittable iff a spec can express
/// it.
inline constexpr std::size_t kMinN = 64;
inline constexpr std::size_t kMaxN = 65536;
inline constexpr int kMaxSeeds = 10000;
inline constexpr std::size_t kMaxIterations = 1000000000;
inline constexpr std::size_t kMaxTiles = 1000000;

/// Empty when every field is in range, else the first problem (e.g.
/// "seeds=0 out of range [1, 10000]").  The spec parser, the config
/// builders and every scenario kind's validator (so ExperimentEngine::submit)
/// share it.
[[nodiscard]] std::string validate_experiment_config(
    const ExperimentConfig& config);

struct ExperimentResult {
  double power_w = 0.0;        ///< mean of per-seed DCGM-style averages
  double power_std_w = 0.0;    ///< across seeds
  double iteration_s = 0.0;    ///< realized (post-throttle) iteration time, mean across seeds
  double energy_per_iter_j = 0.0;  ///< mean across seeds
  double alignment = 0.0;      ///< Fig. 8 feature, averaged across seeds
  double weight_fraction = 0.0;
  gpupower::gpusim::RailPower rails;  ///< averaged across seeds
  bool throttled = false;      ///< true if any seed replica throttled
  double clock_frac = 1.0;     ///< mean across seeds
  int seeds = 0;
};

/// One seed replica's raw measurements, before the across-seed reduction.
/// Replicas derive independent RNG streams from (base_seed, seed_index), so
/// they can be computed in any order — or concurrently — and reduced
/// afterwards with results bit-identical to the serial loop.
struct SeedReplicaResult {
  double power_w = 0.0;
  double alignment = 0.0;
  double weight_fraction = 0.0;
  gpupower::gpusim::RailPower rails;
  double iteration_s = 0.0;
  double energy_per_iter_j = 0.0;
  bool throttled = false;
  double clock_frac = 1.0;
};

/// Calls `f` with a std::type_identity tag for the storage type backing
/// `dtype` (FP16 and FP16-T share float16 storage) — the single
/// dtype-to-template dispatch (working_point_activity, the one input build
/// every replica kind shares, and the CLI), so the mapping cannot drift.
template <typename F>
decltype(auto) with_storage_type(gpupower::numeric::DType dtype, F&& f) {
  using gpupower::numeric::DType;
  switch (dtype) {
    case DType::kFP32:
      break;
    case DType::kFP16:
    case DType::kFP16T:
      return f(std::type_identity<gpupower::numeric::float16_t>{});
    case DType::kINT8:
      return f(std::type_identity<gpupower::numeric::int8_value_t>{});
  }
  return f(std::type_identity<float>{});
}

/// Simulator options for one seed replica: the experiment's sampling plan
/// and variation, with the per-seed variation instance derived when
/// `variation->per_seed` is set (shared by the DVFS timeline pipeline).
[[nodiscard]] gpupower::gpusim::SimOptions replica_sim_options(
    const ExperimentConfig& config, int seed_index);

/// Computes one seed replica (seed_index in [0, config.seeds)).  Thread-safe
/// and deterministic for its arguments; the working point's activity comes
/// through `memo` when given (core/activity_memo.hpp), bit-identically.
[[nodiscard]] SeedReplicaResult run_seed_replica(
    const ExperimentConfig& config, int seed_index,
    const ActivityMemo* memo = nullptr);

/// Folds per-seed replicas (in seed order) into the reported result with the
/// exact accumulation order of the historical serial loop.
[[nodiscard]] ExperimentResult reduce_replicas(
    const ExperimentConfig& config, std::span<const SeedReplicaResult> replicas);

}  // namespace gpupower::core
