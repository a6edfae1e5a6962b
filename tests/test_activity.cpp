#include "gpusim/activity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/pattern_spec.hpp"
#include "numeric/isa.hpp"
#include "patterns/distributions.hpp"

namespace gpupower::gpusim {
namespace {

using gemm::GemmProblem;
using gemm::Matrix;
using gemm::TileConfig;
using gpupower::numeric::DType;
using gpupower::numeric::float16_t;

template <typename T>
Matrix<T> random_matrix(std::size_t n, std::uint64_t seed) {
  return gemm::materialize<T>(
      patterns::gaussian_fill(n * n, 0.0, 210.0, seed), n, n);
}

TEST(ActivityCounters, ZeroMatricesProduceNoDataActivity) {
  const std::size_t n = 64;
  Matrix<float16_t> a(n, n), b(n, n);  // all zeros
  const auto est = estimate_activity(GemmProblem::square(n), a, b,
                                     TileConfig::for_dtype(DType::kFP16));
  EXPECT_EQ(est.totals.fetch_toggles, 0u);
  EXPECT_EQ(est.totals.operand_toggles, 0u);
  EXPECT_EQ(est.totals.fetch_weight, 0u);
  EXPECT_EQ(est.totals.mult_pp, 0u);
  EXPECT_EQ(est.totals.exponent_bits, 0u);
  EXPECT_EQ(est.totals.acc_toggles, 0u);
  // But the machine still moved words and issued MACs.
  EXPECT_GT(est.totals.fetch_words, 0u);
  EXPECT_EQ(est.totals.macs, n * n * n);
}

TEST(ActivityCounters, ConstantMatricesToggleOnlyAtBoundaries) {
  const std::size_t n = 64;
  Matrix<float16_t> a(n, n), b(n, n);
  a.fill(float16_t(2.5f));
  b.fill(float16_t(2.5f));
  const auto est = estimate_activity(GemmProblem::square(n), a, b,
                                     TileConfig::for_dtype(DType::kFP16));
  // Identical words back to back: zero toggles after the first word, and
  // zero multiplier transitions after the first MAC.
  const int word_bits = 16;
  EXPECT_LE(est.totals.fetch_toggles, static_cast<std::uint64_t>(word_bits));
  EXPECT_LE(est.totals.operand_toggles, static_cast<std::uint64_t>(word_bits));
  // Weight accumulates for every word regardless.
  EXPECT_GT(est.totals.fetch_weight, 0u);
}

TEST(ActivityCounters, RandomDataTogglesHeavily) {
  const std::size_t n = 64;
  const auto a = random_matrix<float16_t>(n, 1);
  const auto b = random_matrix<float16_t>(n, 2);
  const auto est = estimate_activity(GemmProblem::square(n), a, b,
                                     TileConfig::for_dtype(DType::kFP16));
  // Random FP16 words differ in ~6-8 bits on average.
  const double per_word = static_cast<double>(est.totals.operand_toggles) /
                          static_cast<double>(est.totals.operand_words);
  EXPECT_GT(per_word, 4.0);
  EXPECT_LT(per_word, 10.0);
}

TEST(ActivityCounters, SortedInputsToggleLessThanRandom) {
  const std::size_t n = 64;
  auto values = patterns::gaussian_fill(n * n, 0.0, 210.0, 1);
  auto sorted_values = values;
  std::sort(sorted_values.begin(), sorted_values.end());
  const auto random_a = gemm::materialize<float16_t>(values, n, n);
  const auto sorted_a = gemm::materialize<float16_t>(sorted_values, n, n);

  const auto config = TileConfig::for_dtype(DType::kFP16);
  const auto est_random =
      estimate_activity(GemmProblem::square(n), random_a, random_a, config);
  const auto est_sorted =
      estimate_activity(GemmProblem::square(n), sorted_a, sorted_a, config);
  EXPECT_LT(est_sorted.totals.operand_toggles,
            est_random.totals.operand_toggles);
  EXPECT_LT(est_sorted.totals.mult_pp, est_random.totals.mult_pp);
}

TEST(ActivityTotals, AccumulateAndScale) {
  ActivityTotals a;
  a.macs = 10;
  a.mult_pp = 100;
  ActivityTotals b;
  b.macs = 5;
  b.mult_pp = 50;
  a += b;
  EXPECT_EQ(a.macs, 15u);
  EXPECT_EQ(a.mult_pp, 150u);
  a.scale_by(2.0);
  EXPECT_EQ(a.macs, 30u);
  EXPECT_EQ(a.mult_pp, 300u);
}

struct SamplingCase {
  std::size_t max_tiles;
  double k_fraction;
};

class SampledVsExact : public ::testing::TestWithParam<SamplingCase> {};

TEST_P(SampledVsExact, EstimatesWithinTolerance) {
  // Property: for statistically homogeneous inputs, the sampled estimate of
  // every data-dependent counter stays within ~10% of the exact walk.
  const std::size_t n = 192;
  const auto a = random_matrix<float16_t>(n, 1);
  const auto b = random_matrix<float16_t>(n, 2);
  const auto config = TileConfig::for_dtype(DType::kFP16);
  const auto problem = GemmProblem::square(n);

  const auto exact = estimate_activity(problem, a, b, config);
  SamplingPlan plan;
  plan.max_tiles = GetParam().max_tiles;
  plan.k_fraction = GetParam().k_fraction;
  const auto sampled = estimate_activity(problem, a, b, config, plan);

  const auto within = [](std::uint64_t s, std::uint64_t e, double tol) {
    return std::fabs(static_cast<double>(s) - static_cast<double>(e)) <=
           tol * static_cast<double>(e);
  };
  EXPECT_TRUE(within(sampled.totals.operand_toggles,
                     exact.totals.operand_toggles, 0.10));
  EXPECT_TRUE(within(sampled.totals.mult_pp, exact.totals.mult_pp, 0.10));
  EXPECT_TRUE(within(sampled.totals.acc_toggles, exact.totals.acc_toggles,
                     0.10));
  EXPECT_TRUE(within(sampled.totals.macs, exact.totals.macs, 0.10));
}

INSTANTIATE_TEST_SUITE_P(Plans, SampledVsExact,
                         ::testing::Values(SamplingCase{16, 1.0},
                                           SamplingCase{8, 0.5},
                                           SamplingCase{4, 0.5},
                                           SamplingCase{16, 0.25}));

TEST(Sampling, ExactPlanWalksEveryTile) {
  const std::size_t n = 256;
  const auto a = random_matrix<float16_t>(n, 1);
  const auto b = random_matrix<float16_t>(n, 2);
  const auto est = estimate_activity(GemmProblem::square(n), a, b,
                                     TileConfig::for_dtype(DType::kFP16));
  EXPECT_FALSE(est.sampled);
  EXPECT_EQ(est.tiles_walked, est.tiles_total);
  EXPECT_DOUBLE_EQ(est.k_coverage, 1.0);
  EXPECT_EQ(est.totals.macs, n * n * n);
}

// --- batched bit-plane kernel parity -------------------------------------
//
// The acceptance criterion for the fast path: ActivityTotals from the
// batched kernel are bit-identical to the per-element observer walk, for
// every dtype (SIMT and tensor-core datapaths), exact and sampled plans,
// both B layouts, and ragged tile/K edges.

void expect_identical_counts(const ActivityTotals& batched,
                             const ActivityTotals& observer) {
  // Whole-struct equality covers counter fields added later; the per-field
  // checks below localise a failure.
  EXPECT_TRUE(batched == observer);
  EXPECT_EQ(batched.fetch_words, observer.fetch_words);
  EXPECT_EQ(batched.fetch_toggles, observer.fetch_toggles);
  EXPECT_EQ(batched.fetch_weight, observer.fetch_weight);
  EXPECT_EQ(batched.operand_words, observer.operand_words);
  EXPECT_EQ(batched.operand_toggles, observer.operand_toggles);
  EXPECT_EQ(batched.operand_weight, observer.operand_weight);
  EXPECT_EQ(batched.mult_pp, observer.mult_pp);
  EXPECT_EQ(batched.exponent_bits, observer.exponent_bits);
  EXPECT_EQ(batched.acc_updates, observer.acc_updates);
  EXPECT_EQ(batched.acc_toggles, observer.acc_toggles);
  EXPECT_EQ(batched.macs, observer.macs);
}

void expect_identical_totals(const ActivityEstimate& batched,
                             const ActivityEstimate& observer) {
  expect_identical_counts(batched.totals, observer.totals);
  EXPECT_EQ(batched.sampled, observer.sampled);
  EXPECT_EQ(batched.tiles_walked, observer.tiles_walked);
  EXPECT_EQ(batched.tiles_total, observer.tiles_total);
  EXPECT_DOUBLE_EQ(batched.k_coverage, observer.k_coverage);
}

/// n = 150 leaves ragged edges at every level: threadblock tiles (128 +
/// 22), K-slices, and MMA fragment K-segments.
constexpr std::size_t kParityN = 150;

template <typename T>
Matrix<T> parity_a() {
  auto values = patterns::gaussian_fill(kParityN * kParityN, 0.0, 210.0, 7);
  // Sprinkle exact zeros so the multiplier/exponent zero gating is hit.
  for (std::size_t i = 0; i < values.size(); i += 13) values[i] = 0.0f;
  return gemm::materialize<T>(values, kParityN, kParityN);
}

template <typename T>
Matrix<T> parity_b() {
  return gemm::materialize<T>(
      patterns::gaussian_fill(kParityN * kParityN, 0.0, 210.0, 8), kParityN,
      kParityN);
}

const SamplingPlan kParityPlans[] = {
    SamplingPlan::exact(), SamplingPlan::fast(16),
    SamplingPlan{8, 0.5, 0x5EEDu}, SamplingPlan{12, 0.25, 0x5EEDu}};

template <typename T>
void run_parity_case(DType dtype, bool transpose_b) {
  const auto a = parity_a<T>();
  const auto b = parity_b<T>();
  GemmProblem problem = GemmProblem::square(kParityN, transpose_b);
  const auto config = TileConfig::for_dtype(dtype);

  for (const SamplingPlan& plan : kParityPlans) {
    const auto batched = estimate_activity(problem, a, b, config, plan,
                                           ActivityBackend::kBatched);
    const auto observer = estimate_activity(problem, a, b, config, plan,
                                            ActivityBackend::kObserver);
    expect_identical_totals(batched, observer);
  }
}

TEST(BitPlaneParity, Fp32SimtMatchesObserverBitwise) {
  run_parity_case<float>(DType::kFP32, true);
  run_parity_case<float>(DType::kFP32, false);
}

TEST(BitPlaneParity, Fp16SimtMatchesObserverBitwise) {
  run_parity_case<float16_t>(DType::kFP16, true);
  run_parity_case<float16_t>(DType::kFP16, false);
}

TEST(BitPlaneParity, Fp16TensorCoreMatchesObserverBitwise) {
  run_parity_case<float16_t>(DType::kFP16T, true);
  run_parity_case<float16_t>(DType::kFP16T, false);
}

TEST(BitPlaneParity, Int8TensorCoreMatchesObserverBitwise) {
  run_parity_case<gpupower::numeric::int8_value_t>(DType::kINT8, true);
  run_parity_case<gpupower::numeric::int8_value_t>(DType::kINT8, false);
}

// --- ISA dispatch parity -------------------------------------------------
//
// The batched kernel is compiled for the portable baseline and under the
// popcnt target, and estimate_activity picks one per CPU.  Both compiled
// variants must match the observer walk bit for bit, whichever one this
// CPU would pick: the portable variant against the observer over the
// sampled plans (every kernel path: both B layouts, SIMT and tensor-core
// slices, ragged edges), the popcnt variant against the portable one over
// every plan.

template <typename T>
void run_variant_case(DType dtype, bool popcnt_leg) {
  const auto a = parity_a<T>();
  const auto b = parity_b<T>();
  const auto config = TileConfig::for_dtype(dtype);
  for (const bool transpose_b : {true, false}) {
    const GemmProblem problem = GemmProblem::square(kParityN, transpose_b);
    for (const SamplingPlan& plan : kParityPlans) {
      const bool exact = plan.max_tiles == 0;
      if (!popcnt_leg && exact) continue;
      const auto portable =
          detail::estimate_batched_portable<T>(problem, a, b, config, plan);
      const auto reference =
          popcnt_leg
              ? detail::estimate_batched_popcnt<T>(problem, a, b, config, plan)
              : estimate_activity(problem, a, b, config, plan,
                                  ActivityBackend::kObserver);
      expect_identical_totals(portable, reference);
    }
  }
}

void run_variant_all_dtypes(bool popcnt_leg) {
  run_variant_case<float>(DType::kFP32, popcnt_leg);
  run_variant_case<float16_t>(DType::kFP16, popcnt_leg);
  run_variant_case<float16_t>(DType::kFP16T, popcnt_leg);
  run_variant_case<gpupower::numeric::int8_value_t>(DType::kINT8, popcnt_leg);
}

TEST(IsaDispatchParity, PortableBatchedMatchesObserver) {
  run_variant_all_dtypes(false);
}

TEST(IsaDispatchParity, PopcntBatchedMatchesPortable) {
  if (!gpupower::numeric::cpu_has_popcnt()) {
    GTEST_SKIP() << "this CPU has no popcnt instruction";
  }
  run_variant_all_dtypes(true);
}

// --- non-finite parity corpus --------------------------------------------
//
// The parity matrices above are all finite.  Fig. 4a inputs (one constant
// value with a fraction of every element's bits flipped) put Inf and NaN
// patterns on the FP datapaths.  With every NaN scrubbed -- to the
// same-signed infinity, or to zero -- both compiled batched variants must
// still match the observer walk: the only NaN the arithmetic can then make
// (Inf - Inf, 0 x Inf) is the one default NaN, whatever operand order the
// compiler picks.

enum class NanScrub { kToInf, kToZero };

template <typename T>
core::ExperimentInputs<T> fig4a_inputs(DType dtype, double fraction) {
  core::PatternSpec spec;
  spec.value = core::PatternSpec::Value::kConstant;
  spec.bitop = core::PatternSpec::BitOp::kFlipRandom;
  spec.bit_fraction = fraction;
  return core::build_inputs<T>(spec, dtype, kParityN, 0xF14Au);
}

template <typename T>
std::size_t count_nans(const Matrix<T>& m) {
  using traits = gpupower::numeric::scalar_traits<T>;
  std::size_t nans = 0;
  for (const T v : m.span()) nans += std::isnan(traits::to_float(v)) ? 1 : 0;
  return nans;
}

/// Replaces every NaN element; returns how many non-finite elements the
/// matrix holds afterwards.
template <typename T>
std::size_t scrub_nans(Matrix<T>& m, NanScrub scrub) {
  using traits = gpupower::numeric::scalar_traits<T>;
  std::size_t nonfinite = 0;
  for (T& v : m.span()) {
    const float f = traits::to_float(v);
    if (std::isnan(f)) {
      v = traits::from_float(
          scrub == NanScrub::kToInf
              ? std::copysign(std::numeric_limits<float>::infinity(), f)
              : 0.0f);
    }
    nonfinite += std::isfinite(traits::to_float(v)) ? 0 : 1;
  }
  return nonfinite;
}

template <typename T>
void run_nonfinite_case(DType dtype, NanScrub scrub) {
  const auto config = TileConfig::for_dtype(dtype);
  std::size_t nonfinite = 0;
  for (const double fraction : {0.25, 0.5, 0.75}) {
    auto inputs = fig4a_inputs<T>(dtype, fraction);
    nonfinite += scrub_nans(inputs.a, scrub) + scrub_nans(inputs.b, scrub);
    for (const bool transpose_b : {true, false}) {
      const GemmProblem problem = GemmProblem::square(kParityN, transpose_b);
      for (const SamplingPlan& plan :
           {SamplingPlan::exact(), SamplingPlan{8, 0.5, 0x5EEDu}}) {
        const auto observer =
            estimate_activity(problem, inputs.a, inputs.b, config, plan,
                              ActivityBackend::kObserver);
        expect_identical_totals(
            detail::estimate_batched_portable<T>(problem, inputs.a, inputs.b,
                                                 config, plan),
            observer);
        if (gpupower::numeric::cpu_has_popcnt()) {
          expect_identical_totals(
              detail::estimate_batched_popcnt<T>(problem, inputs.a, inputs.b,
                                                 config, plan),
              observer);
        }
      }
    }
  }
  // The corpus must reach the non-finite datapath it exists for.
  if (dtype != DType::kINT8 && scrub == NanScrub::kToInf) {
    EXPECT_GT(nonfinite, 0u) << gpupower::numeric::name(dtype);
  }
}

void run_nonfinite_all_dtypes(NanScrub scrub) {
  run_nonfinite_case<float>(DType::kFP32, scrub);
  run_nonfinite_case<float16_t>(DType::kFP16, scrub);
  run_nonfinite_case<float16_t>(DType::kFP16T, scrub);
  run_nonfinite_case<gpupower::numeric::int8_value_t>(DType::kINT8, scrub);
}

TEST(NonFiniteParity, InfScrubbedBitFlipsMatchObserver) {
  run_nonfinite_all_dtypes(NanScrub::kToInf);
}

TEST(NonFiniteParity, ZeroScrubbedBitFlipsMatchObserver) {
  run_nonfinite_all_dtypes(NanScrub::kToZero);
}

// With input NaNs the accumulator's bits depend on which NaN operand each
// float op returns, which on x86 depends on operand order.  The batched
// kernel spells its orders out on such K-ranges; the observer walk,
// compiled separately, uses other orders and disagrees with it today
// (ROADMAP: a canonical NaN rule).  Until that re-baseline, pin the
// batched totals on Fig. 4a inputs at 50% to the values the kernel gave
// before its NaN orders were spelled out (x86-64), so they cannot drift.
template <typename T>
void expect_pinned_nan_totals(DType dtype, const ActivityTotals& pinned) {
  const auto inputs = fig4a_inputs<T>(dtype, 0.5);
  ASSERT_GT(count_nans(inputs.a) + count_nans(inputs.b), 0u);
  const GemmProblem problem = GemmProblem::square(kParityN, true);
  const auto config = TileConfig::for_dtype(dtype);
  const SamplingPlan plan{8, 0.5, 0x5EEDu};
  const auto portable = detail::estimate_batched_portable<T>(
      problem, inputs.a, inputs.b, config, plan);
  expect_identical_counts(portable.totals, pinned);
  if (gpupower::numeric::cpu_has_popcnt()) {
    expect_identical_totals(detail::estimate_batched_popcnt<T>(
                                problem, inputs.a, inputs.b, config, plan),
                            portable);
  }
}

TEST(NonFiniteParity, NanInputsKeepPinnedBatchedTotals) {
  expect_pinned_nan_totals<float>(
      DType::kFP32,
      {174938, 2806644, 2796707, 6464250, 103673466, 103366615,
       930616785, 25811423, 3232125, 1989624, 3232125});
  expect_pinned_nan_totals<float16_t>(
      DType::kFP16,
      {174938, 1401869, 1398786, 6464250, 51735559, 51720663,
       196499791, 16094250, 3232125, 4048727, 3232125});
  expect_pinned_nan_totals<float16_t>(
      DType::kFP16T,
      {132300, 1057160, 1057705, 636814, 5092942, 5084656,
       198379878, 16299674, 228684, 1323549, 3277800});
}

// --- port-state persistence ----------------------------------------------

TEST(ActivityCounters, PortStatePersistsAcrossTiles) {
  // The last word driven on each bus must carry over between tiles, like
  // the physical wires: the first word of tile 2 toggles against the last
  // word of tile 1, not against zero.
  const std::size_t n = 64;
  const auto a = random_matrix<float16_t>(n, 3);
  const auto b = random_matrix<float16_t>(n, 4);
  const auto problem = GemmProblem::square(n);
  const auto config = TileConfig::for_dtype(DType::kFP16);
  // Two half-height tiles covering the output.
  const gemm::TileCoord t1{0, 0, n / 2, n};
  const gemm::TileCoord t2{n / 2, 0, n / 2, n};

  ActivityCounters chained;
  std::vector<float> acc(t1.rows * t1.cols, 0.0f);
  gemm::process_tile(problem, a, b, t1, config, acc, chained);
  const PortState mid = chained.port_state();
  // Port state after tile 1 is the last word each stream drove; never all
  // zeros for random data.
  EXPECT_NE(mid.last_fetch_a, 0u);
  EXPECT_NE(mid.last_operand_a, 0u);
  acc.assign(t2.rows * t2.cols, 0.0f);
  gemm::process_tile(problem, a, b, t2, config, acc, chained);

  // A fresh counter for tile 2 alone starts its chains at zero, so the
  // chained walk differs from the sum of independent walks exactly at the
  // tile boundary.
  ActivityCounters fresh1, fresh2;
  acc.assign(t1.rows * t1.cols, 0.0f);
  gemm::process_tile(problem, a, b, t1, config, acc, fresh1);
  acc.assign(t2.rows * t2.cols, 0.0f);
  gemm::process_tile(problem, a, b, t2, config, acc, fresh2);

  EXPECT_EQ(chained.port_state().last_fetch_a,
            fresh2.port_state().last_fetch_a);
  const std::uint64_t independent_sum =
      fresh1.totals().fetch_toggles + fresh2.totals().fetch_toggles;
  EXPECT_NE(chained.totals().fetch_toggles, independent_sum);
  // Words and weight are state-free, so those do add up.
  EXPECT_EQ(chained.totals().fetch_words,
            fresh1.totals().fetch_words + fresh2.totals().fetch_words);
  EXPECT_EQ(chained.totals().fetch_weight,
            fresh1.totals().fetch_weight + fresh2.totals().fetch_weight);
}

// --- sampled-vs-exact scaling bounds -------------------------------------

TEST(Sampling, RespectsTileBudgetAndKCoverage) {
  const std::size_t n = 256;
  const auto a = random_matrix<float16_t>(n, 1);
  const auto b = random_matrix<float16_t>(n, 2);
  const auto config = TileConfig::for_dtype(DType::kFP16);
  SamplingPlan plan;
  plan.max_tiles = 6;
  plan.k_fraction = 0.5;
  const auto est = estimate_activity(GemmProblem::square(n), a, b, config,
                                     plan);
  EXPECT_TRUE(est.sampled);
  EXPECT_LE(est.tiles_walked, plan.max_tiles);
  EXPECT_GT(est.tiles_walked, 0u);
  // K coverage honours the requested fraction up to slice granularity.
  const double slices = std::ceil(static_cast<double>(n) /
                                  static_cast<double>(config.threadblock.k));
  const double slice_frac = 1.0 / slices;
  EXPECT_GE(est.k_coverage, plan.k_fraction - slice_frac);
  EXPECT_LE(est.k_coverage, plan.k_fraction + slice_frac);
}

TEST(Sampling, ScaledCountsApproximateExactStructure) {
  // Structural counters (macs, words) scale back to the full problem within
  // the rounding of tiles_total / tiles_walked and k_coverage.
  const std::size_t n = 256;
  const auto a = random_matrix<float16_t>(n, 1);
  const auto b = random_matrix<float16_t>(n, 2);
  const auto config = TileConfig::for_dtype(DType::kFP16);
  SamplingPlan plan;
  plan.max_tiles = 8;
  plan.k_fraction = 0.5;
  const auto est = estimate_activity(GemmProblem::square(n), a, b, config,
                                     plan);
  const auto exact_macs = static_cast<double>(n) * static_cast<double>(n) *
                          static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(est.totals.macs) / exact_macs, 1.0, 0.05);
  const auto est_words = static_cast<double>(est.totals.operand_words);
  EXPECT_GT(est_words, 0.0);
  EXPECT_NEAR(est_words / (2.0 * exact_macs), 1.0, 0.05);
}

TEST(Sampling, SmallProblemNeverSamples) {
  // When the grid has fewer quanta than max_tiles, the walk is exhaustive
  // at warp granularity.
  const std::size_t n = 64;
  const auto a = random_matrix<float16_t>(n, 1);
  const auto b = random_matrix<float16_t>(n, 2);
  SamplingPlan plan;
  plan.max_tiles = 1000;
  const auto est = estimate_activity(GemmProblem::square(n), a, b,
                                     TileConfig::for_dtype(DType::kFP16), plan);
  EXPECT_FALSE(est.sampled);
  EXPECT_EQ(est.totals.macs, n * n * n);
}

}  // namespace
}  // namespace gpupower::gpusim
