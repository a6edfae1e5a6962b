#include "patterns/sparsity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "patterns/distributions.hpp"

namespace gpupower::patterns {
namespace {

TEST(Sparsity, ExactFraction) {
  auto data = gaussian_fill(1000, 10.0, 1.0, 42);  // mean 10: no natural zeros
  sparsify(data, 0.37, 7);
  EXPECT_NEAR(measured_sparsity(data), 0.37, 1e-9);
}

TEST(Sparsity, ZeroFractionIsIdentity) {
  auto data = gaussian_fill(256, 0.0, 210.0, 42);
  const auto original = data;
  sparsify(data, 0.0, 7);
  EXPECT_EQ(data, original);
}

TEST(Sparsity, FullFractionZeroesEverything) {
  auto data = gaussian_fill(256, 0.0, 210.0, 42);
  sparsify(data, 1.0, 7);
  EXPECT_DOUBLE_EQ(measured_sparsity(data), 1.0);
}

TEST(Sparsity, NonZeroedValuesUntouched) {
  auto data = gaussian_fill(512, 10.0, 1.0, 42);
  const auto original = data;
  sparsify(data, 0.5, 7);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != 0.0f) {
      EXPECT_EQ(data[i], original[i]);
    }
  }
}

TEST(Sparsity, SeedSelectsDifferentPositions) {
  auto a = gaussian_fill(512, 10.0, 1.0, 42);
  auto b = a;
  sparsify(a, 0.5, 1);
  sparsify(b, 0.5, 2);
  EXPECT_NE(a, b);
}

/// Bitwise buffer equality: a signed zero must not pass for the other.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Sparsity, FullFractionFastPathEqualsDrawLoop) {
  auto fast = gaussian_fill(777, 0.0, 210.0, 42);
  auto drawn = fast;
  sparsify(fast, 1.0, 7);
  detail::sparsify_draws<std::size_t>(drawn, drawn.size(), 7);
  EXPECT_TRUE(same_bits(fast, drawn));
}

TEST(Sparsity, IndexWidthsDrawTheSameZeroSet) {
  for (const double fraction : {0.1, 0.5, 0.9}) {
    auto narrow = gaussian_fill(4096, 0.0, 210.0, 42);
    auto wide = narrow;
    const auto k = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(narrow.size())));
    detail::sparsify_draws<std::uint32_t>(narrow, k, 9);
    detail::sparsify_draws<std::size_t>(wide, k, 9);
    EXPECT_TRUE(same_bits(narrow, wide)) << fraction;
    // sparsify itself takes the 32-bit path at this size.
    auto dispatched = gaussian_fill(4096, 0.0, 210.0, 42);
    sparsify(dispatched, fraction, 9);
    EXPECT_TRUE(same_bits(dispatched, wide)) << fraction;
  }
}

TEST(Sparsity, AfterSortSortsFirst) {
  auto data = gaussian_fill(400, 10.0, 1.0, 42);
  sparsify_after_sort(data, 0.25, 7);
  // Removing the zeros, the remaining values must be ascending (they were
  // sorted before sparsification).
  std::vector<float> nonzero;
  for (const float v : data) {
    if (v != 0.0f) nonzero.push_back(v);
  }
  EXPECT_TRUE(std::is_sorted(nonzero.begin(), nonzero.end()));
  EXPECT_NEAR(measured_sparsity(data), 0.25, 1e-9);
}

TEST(Sparsity, TwoFourStructure) {
  auto data = gaussian_fill(64, 10.0, 1.0, 42);
  const auto original = data;
  sparsify_2_4(data);
  for (std::size_t g = 0; g < 16; ++g) {
    int zeros = 0;
    float max_zeroed = 0.0f;
    float min_kept = 1e30f;
    for (std::size_t i = 0; i < 4; ++i) {
      const float v = data[g * 4 + i];
      if (v == 0.0f) {
        ++zeros;
        max_zeroed = std::max(max_zeroed, std::fabs(original[g * 4 + i]));
      } else {
        min_kept = std::min(min_kept, std::fabs(v));
      }
    }
    EXPECT_EQ(zeros, 2) << "group " << g;
    // The two smallest magnitudes were the ones pruned.
    EXPECT_LE(max_zeroed, min_kept) << "group " << g;
  }
}

class SparsityFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(SparsityFractionSweep, RealizedFractionIsRounded) {
  const double fraction = GetParam();
  auto data = gaussian_fill(777, 10.0, 1.0, 42);
  sparsify(data, fraction, 7);
  const auto expected = static_cast<double>(std::llround(fraction * 777)) / 777.0;
  EXPECT_NEAR(measured_sparsity(data), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SparsityFractionSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.333, 0.5, 0.75,
                                           0.9, 1.0));

}  // namespace
}  // namespace gpupower::patterns
