#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analysis/stats.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"

namespace gpupower::core {
namespace {

ExperimentConfig small_config(gpupower::numeric::DType dtype) {
  ExperimentConfig config;
  config.dtype = dtype;
  config.n = 128;
  config.seeds = 2;
  config.pattern = baseline_gaussian_spec();
  return config;
}

TEST(Experiment, DefaultIterationsFollowPaper) {
  ExperimentConfig config;
  config.dtype = gpupower::numeric::DType::kFP16T;
  EXPECT_EQ(config.effective_iterations(), 20000u);
  config.dtype = gpupower::numeric::DType::kFP32;
  EXPECT_EQ(config.effective_iterations(), 10000u);
  config.iterations = 123;
  EXPECT_EQ(config.effective_iterations(), 123u);
}

TEST(Experiment, DeterministicForSameConfig) {
  const auto config = small_config(gpupower::numeric::DType::kFP16);
  const auto a = run_scenario(config).static_result();
  const auto b = run_scenario(config).static_result();
  EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
  EXPECT_DOUBLE_EQ(a.alignment, b.alignment);
}

TEST(Experiment, BaseSeedChangesInputsNotProtocol) {
  auto config = small_config(gpupower::numeric::DType::kFP16);
  const auto a = run_scenario(config).static_result();
  config.base_seed = 1234;
  const auto b = run_scenario(config).static_result();
  EXPECT_NE(a.power_w, b.power_w);        // different random inputs
  EXPECT_DOUBLE_EQ(a.iteration_s, b.iteration_s);  // runtime is shape-only
  // Same distribution: power within a few watts.
  EXPECT_NEAR(a.power_w, b.power_w, 5.0);
}

TEST(Experiment, ResultFieldsPopulated) {
  const auto result =
      run_scenario(small_config(gpupower::numeric::DType::kFP16))
          .static_result();
  EXPECT_GT(result.power_w, 0.0);
  EXPECT_GT(result.iteration_s, 0.0);
  EXPECT_GT(result.energy_per_iter_j, 0.0);
  EXPECT_GT(result.weight_fraction, 0.0);
  EXPECT_LT(result.weight_fraction, 1.0);
  EXPECT_GE(result.alignment, 0.0);
  EXPECT_LE(result.alignment, 1.0);
  EXPECT_EQ(result.seeds, 2);
  EXPECT_GT(result.rails.total(), 0.0);
}

TEST(Experiment, EverySeedContributes) {
  auto config = small_config(gpupower::numeric::DType::kFP16);
  config.seeds = 6;
  const auto result = run_scenario(config).static_result();
  EXPECT_EQ(result.seeds, 6);
  // With measurement noise and input variation, the across-seed standard
  // deviation is positive but small.
  EXPECT_GT(result.power_std_w, 0.0);
  EXPECT_LT(result.power_std_w, 5.0);
}

TEST(Experiment, AllDtypesRun) {
  for (const auto dtype : gpupower::numeric::kAllDTypes) {
    const auto result = run_scenario(small_config(dtype)).static_result();
    EXPECT_GT(result.power_w, 0.0) << gpupower::numeric::name(dtype);
  }
}

TEST(Experiment, ProcessVariationShiftsPower) {
  auto config = small_config(gpupower::numeric::DType::kFP16);
  const auto base = run_scenario(config).static_result();
  config.variation = gpupower::gpusim::ProcessVariation{0.05, 7};
  const auto varied = run_scenario(config).static_result();
  EXPECT_NE(base.power_w, varied.power_w);
  // Section III: instance-to-instance shifts of up to ~10 W.
  EXPECT_NEAR(base.power_w, varied.power_w, 15.0);
  // Same instance is reproducible.
  const auto again = run_scenario(config).static_result();
  EXPECT_DOUBLE_EQ(varied.power_w, again.power_w);
}

TEST(Experiment, ReduceAveragesPerSeedScalars) {
  // Regression: reduce_replicas used to keep only the *last* replica's
  // iteration_s, energy_per_iter_j, and clock_frac, reporting an arbitrary
  // seed.  All per-seed scalars must fold into means.
  ExperimentConfig config;
  config.seeds = 3;
  std::vector<SeedReplicaResult> replicas(3);
  for (int s = 0; s < 3; ++s) {
    replicas[s].power_w = 100.0 + s;
    replicas[s].iteration_s = 0.010 + 0.001 * s;
    replicas[s].energy_per_iter_j = 2.0 + s;
    replicas[s].clock_frac = 1.0 - 0.1 * s;
    replicas[s].throttled = s == 1;
  }
  const ExperimentResult result = reduce_replicas(config, replicas);
  EXPECT_NEAR(result.iteration_s, (0.010 + 0.011 + 0.012) / 3.0, 1e-15);
  EXPECT_NEAR(result.energy_per_iter_j, 3.0, 1e-12);
  EXPECT_NEAR(result.clock_frac, (1.0 + 0.9 + 0.8) / 3.0, 1e-12);
  EXPECT_TRUE(result.throttled);
}

TEST(Experiment, VariationReportsSeedAveragesNotLastSeed) {
  // End-to-end: with device variation enabled the per-seed energies differ,
  // and the reduced result must equal the mean over run_seed_replica — not
  // whichever replica happened to finish last.
  auto config = small_config(gpupower::numeric::DType::kFP16);
  config.seeds = 3;
  config.variation = gpupower::gpusim::ProcessVariation{0.05, 7};

  // Fold through the same Welford accumulator the reduction uses so the
  // expected means match bit for bit.
  analysis::RunningStats energy, iter, clock;
  bool distinct_energy = false;
  const SeedReplicaResult first = run_seed_replica(config, 0);
  for (int s = 0; s < config.seeds; ++s) {
    const SeedReplicaResult replica = run_seed_replica(config, s);
    energy.add(replica.energy_per_iter_j);
    iter.add(replica.iteration_s);
    clock.add(replica.clock_frac);
    distinct_energy =
        distinct_energy || replica.energy_per_iter_j != first.energy_per_iter_j;
  }
  ASSERT_TRUE(distinct_energy)
      << "seeds should produce distinct per-iteration energies";

  const ExperimentResult result = run_scenario(config).static_result();
  EXPECT_DOUBLE_EQ(result.energy_per_iter_j, energy.mean());
  EXPECT_DOUBLE_EQ(result.iteration_s, iter.mean());
  EXPECT_DOUBLE_EQ(result.clock_frac, clock.mean());
}

TEST(Experiment, PerSeedVariationLandsSeedsOnDistinctGpus) {
  auto config = small_config(gpupower::numeric::DType::kFP16);
  config.seeds = 4;
  config.sampling = gpupower::gpusim::SamplingPlan::fast(6, 0.5);
  gpupower::gpusim::ProcessVariation variation;
  variation.instance = 7;

  // Flag off (default): every replica shares the configured instance —
  // bit-identical to the historical behaviour.
  config.variation = variation;
  for (int s = 0; s < config.seeds; ++s) {
    const auto options = replica_sim_options(config, s);
    ASSERT_TRUE(options.variation.has_value());
    EXPECT_EQ(options.variation->instance, variation.instance);
  }
  const ExperimentResult shared = run_scenario(config).static_result();

  // Flag on: each seed derives its own instance — distinct from the base
  // and from every other seed (the paper's VM-relanding study).
  variation.per_seed = true;
  config.variation = variation;
  std::vector<std::uint64_t> instances;
  for (int s = 0; s < config.seeds; ++s) {
    const auto options = replica_sim_options(config, s);
    ASSERT_TRUE(options.variation.has_value());
    EXPECT_NE(options.variation->instance, variation.instance);
    instances.push_back(options.variation->instance);
  }
  std::sort(instances.begin(), instances.end());
  EXPECT_EQ(std::unique(instances.begin(), instances.end()), instances.end())
      << "per-seed instances must be pairwise distinct";

  // Distinct simulated GPUs shift each replica's energy scale, so the
  // across-seed spread widens relative to the shared-instance run.
  const ExperimentResult per_seed = run_scenario(config).static_result();
  EXPECT_NE(per_seed.power_w, shared.power_w);
  EXPECT_GT(per_seed.power_std_w, shared.power_std_w);
}

TEST(Experiment, RejectsNonPositiveSeeds) {
  auto config = small_config(gpupower::numeric::DType::kFP16);
  config.seeds = 0;
  EXPECT_THROW((void)run_scenario(config), std::invalid_argument);
  config.seeds = -2;
  EXPECT_THROW((void)run_scenario(config), std::invalid_argument);
}

TEST(Experiment, SampledConfigTracksExact) {
  auto config = small_config(gpupower::numeric::DType::kFP16);
  config.n = 192;
  const auto exact = run_scenario(config).static_result();
  config.sampling = gpupower::gpusim::SamplingPlan::fast(8, 0.5);
  const auto sampled = run_scenario(config).static_result();
  EXPECT_NEAR(sampled.power_w, exact.power_w, 0.05 * exact.power_w);
}

}  // namespace
}  // namespace gpupower::core
