#include "core/pattern_dsl.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/figures.hpp"
#include "gpusim/dvfs/dsl_util.hpp"

namespace gpupower::core {
namespace {

TEST(PatternDsl, ParsesGaussianDefaults) {
  const auto result = parse_pattern("gaussian()");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.spec.value, PatternSpec::Value::kGaussian);
  EXPECT_DOUBLE_EQ(result.spec.mean, 0.0);
  EXPECT_LT(result.spec.sigma, 0.0);  // paper default
  EXPECT_TRUE(result.spec.transpose_b);
}

TEST(PatternDsl, ParsesNamedArguments) {
  const auto result = parse_pattern("gaussian(mean=16, sigma=2)");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_DOUBLE_EQ(result.spec.mean, 16.0);
  EXPECT_DOUBLE_EQ(result.spec.sigma, 2.0);
}

TEST(PatternDsl, ParsesPositionalArguments) {
  const auto result = parse_pattern("set(4, 0, 210)");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.spec.value, PatternSpec::Value::kValueSet);
  EXPECT_EQ(result.spec.set_size, 4u);
  EXPECT_DOUBLE_EQ(result.spec.sigma, 210.0);
}

TEST(PatternDsl, ParsesFullPipeline) {
  const auto result = parse_pattern(
      "gaussian(sigma=210) | sort_rows(40%) | sparsity(25%) | zero_lsb(0.5) "
      "| no_transpose()");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.spec.place, PatternSpec::Place::kSortRows);
  EXPECT_DOUBLE_EQ(result.spec.sort_percent, 40.0);
  EXPECT_DOUBLE_EQ(result.spec.sparsity, 0.25);
  EXPECT_EQ(result.spec.bitop, PatternSpec::BitOp::kZeroLow);
  EXPECT_DOUBLE_EQ(result.spec.bit_fraction, 0.5);
  EXPECT_FALSE(result.spec.transpose_b);
}

TEST(PatternDsl, PercentAndFractionAreEquivalent) {
  const auto a = parse_pattern("gaussian() | sparsity(50%)");
  const auto b = parse_pattern("gaussian() | sparsity(0.5)");
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_DOUBLE_EQ(a.spec.sparsity, b.spec.sparsity);
}

TEST(PatternDsl, WhitespaceInsensitive) {
  const auto a = parse_pattern("  gaussian( sigma = 210 )|full_sort()  ");
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.spec.place, PatternSpec::Place::kFullSort);
}

struct DslError {
  const char* input;
  const char* expect_substring;
};

class PatternDslErrors : public ::testing::TestWithParam<DslError> {};

TEST_P(PatternDslErrors, RejectsWithMessage) {
  const auto result = parse_pattern(GetParam().input);
  EXPECT_FALSE(result.ok) << GetParam().input;
  EXPECT_NE(result.error.find(GetParam().expect_substring), std::string::npos)
      << "got: " << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PatternDslErrors,
    ::testing::Values(
        DslError{"", "empty"},
        DslError{"bogus()", "unknown stage"},
        DslError{"gaussian", "expected '('"},
        DslError{"gaussian(", "expected number"},
        DslError{"gaussian() gaussian()", "expected '|'"},
        DslError{"gaussian() | constant()", "duplicate value-distribution"},
        DslError{"sort_rows()", "needs a percentage"},
        DslError{"sort_rows(150%)", "must be in [0, 100]"},
        DslError{"sparsity(1.5)", "must be in [0, 1]"},
        DslError{"zero_lsb(2)", "must be in [0, 1]"},
        DslError{"gaussian(sigma=-3)", "sigma must be positive"},
        DslError{"full_sort() | sort_rows(10%)", "duplicate placement"},
        DslError{"zero_lsb(0.5) | rand_msb(0.5)", "duplicate bit stage"},
        DslError{"set(size=0)", "set size"}));

TEST(PatternDsl, ErrorPositionPointsAtOffendingStage) {
  const auto result = parse_pattern("gaussian() | bogus()");
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.error_pos, 13u);
}

/// Every field of `a` and `b` bit-equal (sigma included: the unprinted
/// paper default reparses as the default).
void expect_same_spec(const PatternSpec& a, const PatternSpec& b,
                      const std::string& dsl) {
  EXPECT_EQ(a.value, b.value) << dsl;
  EXPECT_EQ(a.mean, b.mean) << dsl;
  EXPECT_EQ(a.sigma, b.sigma) << dsl;
  EXPECT_EQ(a.set_size, b.set_size) << dsl;
  EXPECT_EQ(a.place, b.place) << dsl;
  EXPECT_EQ(a.sort_percent, b.sort_percent) << dsl;
  EXPECT_EQ(a.sparsity, b.sparsity) << dsl;
  EXPECT_EQ(a.bitop, b.bitop) << dsl;
  EXPECT_EQ(a.bit_fraction, b.bit_fraction) << dsl;
  EXPECT_EQ(a.transpose_b, b.transpose_b) << dsl;
}

TEST(PatternDsl, RoundTripsEveryFigureSpecExactly) {
  // Property: every spec in the figure registry survives
  // to_dsl -> parse_pattern bit for bit, and every number in it prints as
  // it does at ostream's default precision, so display text is unchanged.
  using gpupower::gpusim::dvfs::detail::format_exact;
  for (const auto fig : kAllFigures) {
    for (const auto& point : figure_sweep(fig)) {
      const std::string dsl = to_dsl(point.spec);
      const auto reparsed = parse_pattern(dsl);
      ASSERT_TRUE(reparsed.ok) << dsl << ": " << reparsed.error;
      expect_same_spec(point.spec, reparsed.spec, dsl);
      const PatternSpec& s = point.spec;
      for (const double v :
           {s.mean, s.sigma, s.sort_percent, s.sparsity, s.bit_fraction}) {
        std::ostringstream display;
        display << v;
        EXPECT_EQ(format_exact(v), display.str()) << dsl;
      }
    }
  }
}

TEST(PatternDsl, RoundTripsPastDisplayPrecision) {
  const auto first = parse_pattern(
      "set(size=5, mean=0.1234567891, sigma=210.00000000001) | "
      "sort_cols(33.333333333%) | sparsity(0.1234561) | rand_msb(0.3)");
  ASSERT_TRUE(first.ok) << first.error;
  const std::string dsl = to_dsl(first.spec);
  const auto second = parse_pattern(dsl);
  ASSERT_TRUE(second.ok) << dsl << ": " << second.error;
  expect_same_spec(first.spec, second.spec, dsl);
  EXPECT_EQ(to_dsl(second.spec), dsl);
}

}  // namespace
}  // namespace gpupower::core
