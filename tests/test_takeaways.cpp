// Integration suite: the paper's takeaways T1-T15 as executable assertions.
// Each test reproduces one Section IV observation at reduced scale (128-192
// matrices, exact activity walk) and checks the *direction* of the effect —
// the reproduction contract is shapes and orderings, not absolute watts.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"

namespace gpupower::core {
namespace {

using gpupower::numeric::DType;

constexpr std::size_t kN = 128;

double power_of(const PatternSpec& spec, DType dtype, std::size_t n = kN) {
  ExperimentConfig config;
  config.dtype = dtype;
  config.n = n;
  config.seeds = 3;
  config.pattern = spec;
  config.sampler.noise_sigma_w = 0.0;  // directional checks want no noise
  return run_scenario(config).static_result().power_w;
}

TEST(Takeaways, T1_StddevDoesNotSignificantlyChangePower) {
  // Fig. 3a: vary sigma over four orders of magnitude at mean 0.
  PatternSpec lo = baseline_gaussian_spec();
  lo.sigma = 4.0;
  PatternSpec hi = baseline_gaussian_spec();
  hi.sigma = 16384.0;
  for (const DType dtype : {DType::kFP16, DType::kFP32}) {
    const double p_lo = power_of(lo, dtype);
    const double p_hi = power_of(hi, dtype);
    EXPECT_NEAR(p_lo, p_hi, 0.08 * p_lo)
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T2_LargerMeanReducesFpPower) {
  // Fig. 3b: mean 4096 with sigma 1 versus mean 0.
  PatternSpec baseline = baseline_gaussian_spec();
  baseline.sigma = 1.0;
  PatternSpec shifted = baseline;
  shifted.mean = 4096.0;
  for (const DType dtype : {DType::kFP16, DType::kFP16T}) {
    EXPECT_LT(power_of(shifted, dtype), power_of(baseline, dtype))
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T3_SmallValueSetsReducePower) {
  PatternSpec small_set = baseline_gaussian_spec();
  small_set.value = PatternSpec::Value::kValueSet;
  small_set.set_size = 2;
  PatternSpec large_set = small_set;
  large_set.set_size = 4096;
  for (const DType dtype : {DType::kFP16, DType::kFP16T, DType::kINT8}) {
    EXPECT_LT(power_of(small_set, dtype), power_of(large_set, dtype))
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T4_SimilarBitsUseLessPower) {
  // Fig. 4a: constant fill (0 flips) vs heavily flipped bits.
  PatternSpec constant = baseline_gaussian_spec();
  constant.value = PatternSpec::Value::kConstant;
  PatternSpec flipped = constant;
  flipped.bitop = PatternSpec::BitOp::kFlipRandom;
  flipped.bit_fraction = 0.5;
  for (const DType dtype : gpupower::numeric::kAllDTypes) {
    EXPECT_LT(power_of(constant, dtype), power_of(flipped, dtype))
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T5_MoreRandomLsbsMorePower) {
  PatternSpec base = baseline_gaussian_spec();
  base.value = PatternSpec::Value::kConstant;
  base.bitop = PatternSpec::BitOp::kRandomizeLow;
  double prev = 0.0;
  for (const double frac : {0.0, 0.25, 0.5, 1.0}) {
    PatternSpec spec = base;
    spec.bit_fraction = frac;
    const double p = power_of(spec, DType::kFP16);
    EXPECT_GT(p, prev) << "fraction " << frac;
    prev = p;
  }
}

TEST(Takeaways, T6_MoreRandomMsbsMorePower) {
  PatternSpec base = baseline_gaussian_spec();
  base.value = PatternSpec::Value::kConstant;
  base.bitop = PatternSpec::BitOp::kRandomizeHigh;
  PatternSpec few = base, many = base;
  few.bit_fraction = 0.125;
  many.bit_fraction = 0.75;
  for (const DType dtype : {DType::kFP16, DType::kFP16T}) {
    EXPECT_LT(power_of(base, dtype), power_of(few, dtype));
    EXPECT_LT(power_of(few, dtype), power_of(many, dtype));
  }
}

TEST(Takeaways, T7_Fp16TensorIsMostPowerHungry) {
  // Fig. 4 observation, at full occupancy so datapath rates dominate.
  const PatternSpec spec = baseline_gaussian_spec();
  ExperimentConfig config;
  config.n = 256;
  config.seeds = 2;
  config.pattern = spec;
  config.sampling = gpupower::gpusim::SamplingPlan::fast(16, 0.5);
  // Compare at the paper's shape via the calculator's full-occupancy
  // regime: use 2048 with sampling.
  config.n = 2048;
  double fp16t = 0.0;
  for (const DType dtype : gpupower::numeric::kAllDTypes) {
    config.dtype = dtype;
    const double p = run_scenario(config).static_result().power_w;
    if (dtype == DType::kFP16T) {
      fp16t = p;
    }
  }
  for (const DType dtype : {DType::kFP32, DType::kFP16, DType::kINT8}) {
    config.dtype = dtype;
    EXPECT_LT(run_scenario(config).static_result().power_w, fp16t)
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T8_SortingIntoRowsReducesPower) {
  PatternSpec unsorted = baseline_gaussian_spec();
  unsorted.transpose_b = false;
  PatternSpec sorted = unsorted;
  sorted.place = PatternSpec::Place::kSortRows;
  sorted.sort_percent = 100.0;
  for (const DType dtype : gpupower::numeric::kAllDTypes) {
    EXPECT_LT(power_of(sorted, dtype), power_of(unsorted, dtype))
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T9_AlignedSortingReducesMoreThanSorting) {
  PatternSpec sorted_rows = baseline_gaussian_spec();
  sorted_rows.place = PatternSpec::Place::kSortRows;
  sorted_rows.sort_percent = 100.0;
  sorted_rows.transpose_b = false;  // Fig. 5a
  PatternSpec aligned = sorted_rows;
  aligned.transpose_b = true;  // Fig. 5b
  for (const DType dtype : {DType::kFP16, DType::kFP16T}) {
    EXPECT_LT(power_of(aligned, dtype), power_of(sorted_rows, dtype))
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T10_ColumnSortingReducesPower) {
  PatternSpec unsorted = baseline_gaussian_spec();
  unsorted.transpose_b = false;
  PatternSpec sorted = unsorted;
  sorted.place = PatternSpec::Place::kSortColumns;
  sorted.sort_percent = 100.0;
  EXPECT_LT(power_of(sorted, DType::kFP16), power_of(unsorted, DType::kFP16));
}

TEST(Takeaways, T11_IntraRowSortingHelpsLessThanFullSorting) {
  PatternSpec within = baseline_gaussian_spec();
  within.place = PatternSpec::Place::kSortWithinRows;
  within.sort_percent = 100.0;
  PatternSpec full = baseline_gaussian_spec();
  full.place = PatternSpec::Place::kSortRows;
  full.sort_percent = 100.0;
  const PatternSpec baseline = baseline_gaussian_spec();
  const double p_within = power_of(within, DType::kFP16);
  const double p_full = power_of(full, DType::kFP16);
  const double p_base = power_of(baseline, DType::kFP16);
  EXPECT_LT(p_within, p_base);  // intra-row sorting still helps...
  EXPECT_LT(p_full, p_within);  // ...but less than sorting fully
}

TEST(Takeaways, T12_SparsityReducesPower) {
  const PatternSpec dense = baseline_gaussian_spec();
  PatternSpec sparse = dense;
  sparse.sparsity = 0.9;
  for (const DType dtype : gpupower::numeric::kAllDTypes) {
    EXPECT_LT(power_of(sparse, dtype), power_of(dense, dtype))
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T13_SparsityOnSortedInputsPeaksMidway) {
  // Fig. 6b: the hump — mid sparsity draws more power than either endpoint
  // for FP datatypes.
  PatternSpec base = baseline_gaussian_spec();
  base.place = PatternSpec::Place::kFullSort;
  PatternSpec mid = base;
  mid.sparsity = 0.35;
  PatternSpec full = base;
  full.sparsity = 1.0;
  for (const DType dtype : {DType::kFP16, DType::kFP16T}) {
    const double p0 = power_of(base, dtype);
    const double p35 = power_of(mid, dtype);
    const double p100 = power_of(full, dtype);
    EXPECT_GT(p35, p0) << gpupower::numeric::name(dtype);
    EXPECT_GT(p35, p100) << gpupower::numeric::name(dtype);
  }
  // FP32's 23-bit mantissa leaves sorted neighbours less bit-similar, so its
  // hump is shallower and peaks earlier; check it at a larger size where the
  // sorted stream is smooth enough to expose it.
  {
    PatternSpec early = base;
    early.sparsity = 0.20;
    const double p0 = power_of(base, DType::kFP32, 384);
    const double p20 = power_of(early, DType::kFP32, 384);
    const double p100 = power_of(full, DType::kFP32, 384);
    EXPECT_GT(p20, p0);
    EXPECT_GT(p20, p100);
  }
}

TEST(Takeaways, T14_ZeroingLsbsReducesPower) {
  const PatternSpec base = baseline_gaussian_spec();
  PatternSpec zeroed = base;
  zeroed.bitop = PatternSpec::BitOp::kZeroLow;
  zeroed.bit_fraction = 0.5;
  for (const DType dtype : gpupower::numeric::kAllDTypes) {
    EXPECT_LT(power_of(zeroed, dtype), power_of(base, dtype))
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, T15_ZeroingMsbsReducesPower) {
  const PatternSpec base = baseline_gaussian_spec();
  PatternSpec zeroed = base;
  zeroed.bitop = PatternSpec::BitOp::kZeroHigh;
  zeroed.bit_fraction = 0.25;
  for (const DType dtype : {DType::kFP16, DType::kFP16T, DType::kINT8}) {
    EXPECT_LT(power_of(zeroed, dtype), power_of(base, dtype))
        << gpupower::numeric::name(dtype);
  }
}

TEST(Takeaways, Fig1_RuntimeIsInputIndependent) {
  // Identical shapes, wildly different inputs: identical iteration time.
  ExperimentConfig config;
  config.dtype = DType::kFP16;
  config.n = kN;
  config.seeds = 1;
  config.pattern = baseline_gaussian_spec();
  const double t_random = run_scenario(config).static_result().iteration_s;
  config.pattern.sparsity = 1.0;
  const double t_zero = run_scenario(config).static_result().iteration_s;
  EXPECT_DOUBLE_EQ(t_random, t_zero);
}

TEST(Takeaways, Fig8_AlignmentAndWeightCorrelateWithPower) {
  // Build the Fig. 8 scatter over a few sweeps and check the directional
  // correlations for FP16 (imperfect but present, per the paper).
  std::vector<double> alignment, weight, power;
  for (const auto fig : {FigureId::kFig4aRandomBitFlips,
                         FigureId::kFig6cLsbZeroed, FigureId::kFig6aSparsity}) {
    for (const auto& point : figure_sweep(fig)) {
      ExperimentConfig config;
      config.dtype = DType::kFP16;
      config.n = kN;
      config.seeds = 1;
      config.pattern = point.spec;
      const auto result = run_scenario(config).static_result();
      alignment.push_back(result.alignment);
      weight.push_back(result.weight_fraction);
      power.push_back(result.power_w);
    }
  }
  // Higher alignment <-> lower power; higher weight <-> higher power.
  double sxy_a = 0.0, sxy_w = 0.0;
  const double pm = [&] {
    double s = 0.0;
    for (const double p : power) s += p;
    return s / static_cast<double>(power.size());
  }();
  double am = 0.0, wm = 0.0;
  for (std::size_t i = 0; i < power.size(); ++i) {
    am += alignment[i];
    wm += weight[i];
  }
  am /= static_cast<double>(power.size());
  wm /= static_cast<double>(power.size());
  for (std::size_t i = 0; i < power.size(); ++i) {
    sxy_a += (alignment[i] - am) * (power[i] - pm);
    sxy_w += (weight[i] - wm) * (power[i] - pm);
  }
  EXPECT_LT(sxy_a, 0.0);
  EXPECT_GT(sxy_w, 0.0);
}

}  // namespace
}  // namespace gpupower::core
