#include "core/experiment.hpp"

#include <cmath>
#include <utility>

#include "analysis/stats.hpp"
#include "core/activity_memo.hpp"
#include "gpusim/dvfs/dsl_util.hpp"
#include "patterns/rng.hpp"

namespace gpupower::core {

std::string validate_experiment_config(const ExperimentConfig& config) {
  using gpupower::gpusim::dvfs::detail::format_exact;
  if (config.n < kMinN || config.n > kMaxN) {
    return "n=" + std::to_string(config.n) + " out of range [" +
           std::to_string(kMinN) + ", " + std::to_string(kMaxN) + "]";
  }
  if (config.seeds < 1 || config.seeds > kMaxSeeds) {
    return "seeds=" + std::to_string(config.seeds) + " out of range [1, " +
           std::to_string(kMaxSeeds) + "]";
  }
  if (config.iterations > kMaxIterations) {
    return "iterations=" + std::to_string(config.iterations) +
           " out of range [0, " + std::to_string(kMaxIterations) + "]";
  }
  if (config.sampling.max_tiles > kMaxTiles) {
    return "sampling.tiles=" + std::to_string(config.sampling.max_tiles) +
           " out of range [0, " + std::to_string(kMaxTiles) + "]";
  }
  const double k_fraction = config.sampling.k_fraction;
  if (!(k_fraction > 0.0 && k_fraction <= 1.0)) {
    return "sampling.k_fraction=" + format_exact(k_fraction) +
           " out of range (0, 1]";
  }
  if (!(config.sampler.period_s > 0.0) ||
      !(config.sampler.warmup_trim_s >= 0.0)) {
    return "sampler period must be positive and warmup trim non-negative";
  }
  // The cache key prints every non-finite double as JSON null, so a keyed
  // field must be finite for equal keys to mean equal results.
  const std::pair<const char*, double> keyed[] = {
      {"sampler.period_s", config.sampler.period_s},
      {"sampler.warmup_trim_s", config.sampler.warmup_trim_s},
      {"sampler.ramp_tau_s", config.sampler.ramp_tau_s},
      {"sampler.noise_sigma_w", config.sampler.noise_sigma_w},
      {"variation.sigma_fraction",
       config.variation ? config.variation->sigma_fraction : 0.0}};
  for (const auto& [field, value] : keyed) {
    if (!std::isfinite(value)) {
      return std::string(field) + "=" + format_exact(value) +
             " must be finite";
    }
  }
  return {};
}

gpupower::gpusim::SimOptions replica_sim_options(const ExperimentConfig& config,
                                                 int seed_index) {
  gpupower::gpusim::SimOptions options;
  options.sampling = config.sampling;
  options.variation = config.variation;
  if (options.variation && options.variation->per_seed) {
    // Each seed's "VM" lands on its own physical GPU: the instance id is a
    // salted hash of (base instance, seed index) so seed 0 does not reuse
    // the shared-instance draw.
    options.variation->instance = patterns::derive_seed(
        patterns::derive_seed(options.variation->instance, 0xD1F5u),
        static_cast<std::uint64_t>(seed_index));
  }
  return options;
}

SeedReplicaResult run_seed_replica(const ExperimentConfig& config,
                                   int seed_index, const ActivityMemo* memo) {
  using gpupower::gpusim::GpuSimulator;

  const GpuSimulator sim(config.gpu, replica_sim_options(config, seed_index));

  const gemm::GemmProblem problem{config.n, config.n, config.n, 1.0f, 0.0f,
                                  config.pattern.transpose_b};

  const WorkingPointActivity activity = working_point_activity(
      sim, problem, config, config.pattern, seed_index, memo);
  const gpupower::gpusim::PowerReport report =
      gpupower::gpusim::PowerCalculator(sim.descriptor())
          .evaluate(problem, config.dtype, activity.totals);

  const std::uint64_t replica_seed = patterns::derive_seed(
      config.base_seed, static_cast<std::uint64_t>(seed_index));
  telemetry::SamplerConfig sampler = config.sampler;
  sampler.seed = patterns::derive_seed(replica_seed, 0xD0C6);
  const telemetry::PowerTrace trace =
      telemetry::sample_run(report, config.effective_iterations(), sampler);

  SeedReplicaResult replica;
  replica.power_w = telemetry::reported_power_w(trace, sampler);
  replica.alignment = activity.alignment;
  replica.weight_fraction = activity.weight_fraction;
  replica.rails = report.rails;
  replica.iteration_s = report.realized_iteration_s;
  replica.energy_per_iter_j = report.energy_j;
  replica.throttled = report.throttled;
  replica.clock_frac = report.effective_clock_frac;
  return replica;
}

ExperimentResult reduce_replicas(const ExperimentConfig& config,
                                 std::span<const SeedReplicaResult> replicas) {
  analysis::RunningStats power;
  analysis::RunningStats alignment;
  analysis::RunningStats weight;
  analysis::RunningStats iteration, energy, clock;
  analysis::RunningStats fetch_w, operand_w, multiply_w, accum_w, issue_w;
  ExperimentResult result;

  for (const SeedReplicaResult& replica : replicas) {
    power.add(replica.power_w);
    alignment.add(replica.alignment);
    weight.add(replica.weight_fraction);
    fetch_w.add(replica.rails.fetch_w);
    operand_w.add(replica.rails.operand_w);
    multiply_w.add(replica.rails.multiply_w);
    accum_w.add(replica.rails.accum_w);
    issue_w.add(replica.rails.issue_w);
    // Per-seed scalars: the realized iteration time, per-iteration energy,
    // and throttle clock all depend on the seed's inputs (and on device
    // variation when enabled), so they average across seeds like every
    // other reported quantity — keeping only the last replica's values
    // would report an arbitrary seed.
    iteration.add(replica.iteration_s);
    energy.add(replica.energy_per_iter_j);
    clock.add(replica.clock_frac);
    result.throttled = result.throttled || replica.throttled;
  }

  result.power_w = power.mean();
  result.power_std_w = power.stddev();
  result.alignment = alignment.mean();
  result.weight_fraction = weight.mean();
  result.iteration_s = iteration.mean();
  result.energy_per_iter_j = energy.mean();
  // An empty span (reachable only by calling reduce_replicas directly)
  // keeps every field at its default; clock_frac needs the explicit guard
  // because its neutral value is 1.0 while an empty mean() is 0.0.
  result.clock_frac = replicas.empty() ? 1.0 : clock.mean();
  result.rails.fetch_w = fetch_w.mean();
  result.rails.operand_w = operand_w.mean();
  result.rails.multiply_w = multiply_w.mean();
  result.rails.accum_w = accum_w.mean();
  result.rails.issue_w = issue_w.mean();
  result.seeds = config.seeds;
  return result;
}

}  // namespace gpupower::core
