#include "core/figures.hpp"

#include <gtest/gtest.h>

#include "core/pattern_dsl.hpp"

namespace gpupower::core {
namespace {

class FigureSweep : public ::testing::TestWithParam<FigureId> {};

TEST_P(FigureSweep, IsWellFormed) {
  const auto sweep = figure_sweep(GetParam());
  ASSERT_GE(sweep.size(), 6u);
  for (const auto& point : sweep) {
    EXPECT_FALSE(point.label.empty());
    EXPECT_FALSE(to_dsl(point.spec).empty());
  }
  // x values are strictly increasing along the sweep.
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GT(sweep[i].x, sweep[i - 1].x);
  }
  EXPECT_FALSE(figure_name(GetParam()).empty());
}

INSTANTIATE_TEST_SUITE_P(AllFigures, FigureSweep,
                         ::testing::ValuesIn(kAllFigures));

TEST(Figures, Fig5TransposeProtocol) {
  // Section IV-C: 5a and 5c consume B untransposed; 5b and 5d aligned.
  for (const auto& p : figure_sweep(FigureId::kFig5aSortedRows)) {
    EXPECT_FALSE(p.spec.transpose_b);
  }
  for (const auto& p : figure_sweep(FigureId::kFig5bSortedAligned)) {
    EXPECT_TRUE(p.spec.transpose_b);
  }
  for (const auto& p : figure_sweep(FigureId::kFig5cSortedColumns)) {
    EXPECT_FALSE(p.spec.transpose_b);
  }
  for (const auto& p : figure_sweep(FigureId::kFig5dSortedWithinRows)) {
    EXPECT_TRUE(p.spec.transpose_b);
  }
}

TEST(Figures, Fig4StartsFromConstantFill) {
  for (const auto fig :
       {FigureId::kFig4aRandomBitFlips, FigureId::kFig4bLsbRandomized,
        FigureId::kFig4cMsbRandomized}) {
    const auto sweep = figure_sweep(fig);
    for (const auto& p : sweep) {
      EXPECT_EQ(p.spec.value, PatternSpec::Value::kConstant);
    }
    // First point touches no bits: the pure constant-fill baseline.
    EXPECT_DOUBLE_EQ(sweep.front().spec.bit_fraction, 0.0);
  }
}

TEST(Figures, Fig6bSortsBeforeSparsity) {
  for (const auto& p : figure_sweep(FigureId::kFig6bSparsityAfterSort)) {
    EXPECT_EQ(p.spec.place, PatternSpec::Place::kFullSort);
  }
}

TEST(Figures, Fig3bHoldsSigmaAtOne) {
  for (const auto& p : figure_sweep(FigureId::kFig3bDistributionMean)) {
    EXPECT_DOUBLE_EQ(p.spec.sigma, 1.0);
  }
}

TEST(Figures, BaselineSpecIsPaperDefault) {
  const PatternSpec spec = baseline_gaussian_spec();
  EXPECT_EQ(spec.value, PatternSpec::Value::kGaussian);
  EXPECT_DOUBLE_EQ(spec.mean, 0.0);
  EXPECT_LT(spec.sigma, 0.0);  // negative: per-dtype paper default
  EXPECT_TRUE(spec.transpose_b);
  EXPECT_EQ(spec.place, PatternSpec::Place::kNone);
  EXPECT_DOUBLE_EQ(spec.sparsity, 0.0);
}

TEST(Figures, DslMentionsComponents) {
  PatternSpec spec;
  spec.place = PatternSpec::Place::kSortRows;
  spec.sort_percent = 40.0;
  spec.sparsity = 0.5;
  spec.bitop = PatternSpec::BitOp::kZeroLow;
  spec.bit_fraction = 0.25;
  const auto text = to_dsl(spec);
  EXPECT_NE(text.find("sort_rows"), std::string::npos);
  EXPECT_NE(text.find("sparsity"), std::string::npos);
  EXPECT_NE(text.find("zero_lsb"), std::string::npos);
}

}  // namespace
}  // namespace gpupower::core
