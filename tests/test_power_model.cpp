#include "core/power_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <vector>

#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"
#include "patterns/distributions.hpp"

namespace gpupower::core {
namespace {

using gpupower::numeric::DType;
using gpupower::numeric::float16_t;

TEST(Features, ZeroMatrices) {
  gemm::Matrix<float16_t> a(32, 32), b(32, 32);
  const auto f = extract_features(a, b);
  EXPECT_DOUBLE_EQ(f.weight_fraction, 0.0);
  EXPECT_DOUBLE_EQ(f.neighbor_toggles, 0.0);
  EXPECT_DOUBLE_EQ(f.zero_fraction, 1.0);
  EXPECT_DOUBLE_EQ(f.alignment, 1.0);  // all bits equal (all zero)
  EXPECT_DOUBLE_EQ(f.significand_activity, 0.0);
}

TEST(Features, RandomMatricesLandMidRange) {
  const auto values_a = patterns::gaussian_fill(1024, 0.0, 210.0, 1);
  const auto values_b = patterns::gaussian_fill(1024, 0.0, 210.0, 2);
  const auto a = gemm::materialize<float16_t>(values_a, 32, 32);
  const auto b = gemm::materialize<float16_t>(values_b, 32, 32);
  const auto f = extract_features(a, b);
  EXPECT_GT(f.weight_fraction, 0.2);
  EXPECT_LT(f.weight_fraction, 0.6);
  EXPECT_GT(f.neighbor_toggles, 0.2);
  EXPECT_GT(f.alignment, 0.3);
  EXPECT_LT(f.alignment, 0.8);
  EXPECT_LT(f.zero_fraction, 0.01);
  EXPECT_GT(f.significand_activity, 0.0);
}

TEST(Features, SortingReducesNeighborToggles) {
  auto values = patterns::gaussian_fill(1024, 0.0, 210.0, 1);
  const auto random_m = gemm::materialize<float16_t>(values, 32, 32);
  std::sort(values.begin(), values.end());
  const auto sorted_m = gemm::materialize<float16_t>(values, 32, 32);
  const auto f_random = extract_features(random_m, random_m);
  const auto f_sorted = extract_features(sorted_m, sorted_m);
  EXPECT_LT(f_sorted.neighbor_toggles, f_random.neighbor_toggles);
}

TEST(PowerModel, RecoversSyntheticLinearFunction) {
  // Build samples from a known linear model; fit must recover it.
  std::vector<PowerSample> samples;
  patterns::Xoshiro256 rng(5);
  const double true_w[DataFeatures::kCount] = {40.0, 120.0, -30.0,
                                               -50.0, 200.0, 10.0};
  for (int i = 0; i < 200; ++i) {
    PowerSample s;
    s.features.weight_fraction = rng.uniform();
    s.features.neighbor_toggles = rng.uniform();
    s.features.alignment = rng.uniform();
    s.features.zero_fraction = rng.uniform();
    s.features.significand_activity = rng.uniform();
    s.features.exponent_weight = rng.uniform();
    const auto v = s.features.vector();
    s.power_w = 100.0;
    for (std::size_t k = 0; k < DataFeatures::kCount; ++k) {
      s.power_w += true_w[k] * v[k];
    }
    samples.push_back(s);
  }
  const auto model = InputDependentPowerModel::fit(samples);
  EXPECT_NEAR(model.intercept(), 100.0, 0.5);
  for (std::size_t k = 0; k < DataFeatures::kCount; ++k) {
    EXPECT_NEAR(model.weights()[k], true_w[k], 0.5) << "weight " << k;
  }
  EXPECT_GT(model.r2(samples), 0.999);
}

TEST(PowerModel, PredictsSimulatedPowerAcrossPatterns) {
  // The Section V deliverable: train on simulated experiments, predict power
  // from cheap input statistics alone with useful accuracy.
  std::vector<PowerSample> samples;
  const std::size_t n = 128;
  for (const auto fig :
       {FigureId::kFig3bDistributionMean, FigureId::kFig5bSortedAligned,
        FigureId::kFig6aSparsity, FigureId::kFig4bLsbRandomized,
        FigureId::kFig6cLsbZeroed}) {
    for (const auto& point : figure_sweep(fig)) {
      ExperimentConfig config;
      config.dtype = DType::kFP16;
      config.n = n;
      config.seeds = 1;
      config.pattern = point.spec;
      const auto result = run_scenario(config).static_result();
      const auto inputs =
          build_inputs<float16_t>(point.spec, DType::kFP16, n, 42);
      PowerSample s;
      s.features = extract_features(inputs.a, inputs.b);
      s.power_w = result.power_w;
      samples.push_back(s);
    }
  }
  ASSERT_GE(samples.size(), 30u);
  const auto model = InputDependentPowerModel::fit(samples);
  EXPECT_GT(model.r2(samples), 0.7);

  // Prediction error on the training distribution stays within a few watts.
  double worst = 0.0;
  for (const auto& s : samples) {
    worst = std::max(worst, std::fabs(model.predict(s.features) - s.power_w));
  }
  EXPECT_LT(worst, 12.0);
}

TEST(PowerModel, FitRequiresEnoughSamples) {
  // Underdetermined fit degrades gracefully to a zero model rather than UB.
  std::vector<PowerSample> two(2);
  two[0].power_w = 100.0;
  two[1].power_w = 200.0;
  const auto model = InputDependentPowerModel::fit(two);
  (void)model.predict(two[0].features);  // must not crash
}

}  // namespace
}  // namespace gpupower::core
