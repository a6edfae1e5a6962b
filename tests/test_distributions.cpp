#include "patterns/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

namespace gpupower::patterns {
namespace {

TEST(Distributions, GaussianMoments) {
  const auto data = gaussian_fill(100000, 0.0, 210.0, 42);
  const BufferStats stats = compute_stats(data);
  EXPECT_NEAR(stats.mean, 0.0, 3.0);
  EXPECT_NEAR(stats.stddev, 210.0, 3.0);
}

TEST(Distributions, GaussianShiftedMean) {
  const auto data = gaussian_fill(50000, 1024.0, 1.0, 42);
  const BufferStats stats = compute_stats(data);
  EXPECT_NEAR(stats.mean, 1024.0, 0.1);
  EXPECT_NEAR(stats.stddev, 1.0, 0.05);
}

TEST(Distributions, GaussianDeterministicPerSeed) {
  EXPECT_EQ(gaussian_fill(100, 0.0, 1.0, 7), gaussian_fill(100, 0.0, 1.0, 7));
  EXPECT_NE(gaussian_fill(100, 0.0, 1.0, 7), gaussian_fill(100, 0.0, 1.0, 8));
}

TEST(Distributions, ScaledNormalsMatchGaussianFillBitwise) {
  // Every scale a figure draws one seed at: the Fig. 3a sigma grid, the
  // Fig. 3b mean grid, and each at INT8's 25/210 range scaling, over an
  // odd count (Box-Muller's cached second variate left unused).
  constexpr std::size_t kCount = 1001;
  constexpr std::uint64_t kSeed = 99;
  std::vector<std::pair<double, double>> scales;
  for (const double sigma :
       {1.0, 4.0, 16.0, 64.0, 210.0, 1024.0, 4096.0, 16384.0}) {
    scales.emplace_back(0.0, sigma);
  }
  for (const double mean :
       {0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0}) {
    scales.emplace_back(mean, 1.0);
  }
  const std::size_t fp_scales = scales.size();
  for (std::size_t i = 0; i < fp_scales; ++i) {
    constexpr double kInt8Scale = 25.0 / 210.0;
    scales.emplace_back(scales[i].first * kInt8Scale,
                        scales[i].second * kInt8Scale);
  }
  const std::vector<double> normals = standard_normals(kCount, kSeed);
  for (const auto& [mean, sigma] : scales) {
    const std::vector<float> want = gaussian_fill(kCount, mean, sigma, kSeed);
    const std::vector<float> got = scale_normals(normals, mean, sigma);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
              0)
        << "mean " << mean << " sigma " << sigma;
    Xoshiro256 rng(kSeed);
    for (std::size_t i = 0; i < kCount; ++i) {
      const auto drawn = static_cast<float>(rng.gaussian(mean, sigma));
      const auto scaled = static_cast<float>(scale_normal(normals[i], mean, sigma));
      ASSERT_EQ(std::memcmp(&drawn, &want[i], sizeof(float)), 0) << i;
      ASSERT_EQ(std::memcmp(&scaled, &want[i], sizeof(float)), 0) << i;
    }
  }
}

TEST(Distributions, ValueSetHasExactlySetSizeUniques) {
  const auto data = value_set_fill(20000, 16, 0.0, 210.0, 42);
  std::set<float> uniques(data.begin(), data.end());
  EXPECT_EQ(uniques.size(), 16u);
}

TEST(Distributions, ValueSetSizeOneIsConstant) {
  const auto data = value_set_fill(1000, 1, 0.0, 210.0, 42);
  for (const float v : data) EXPECT_EQ(v, data[0]);
}

TEST(Distributions, ValueSetSamplesUniformly) {
  const auto data = value_set_fill(64000, 4, 0.0, 210.0, 42);
  std::set<float> uniques(data.begin(), data.end());
  ASSERT_EQ(uniques.size(), 4u);
  for (const float u : uniques) {
    const auto count = std::count(data.begin(), data.end(), u);
    EXPECT_NEAR(static_cast<double>(count), 16000.0, 800.0);
  }
}

TEST(Distributions, ConstantFillIsOneGaussianDraw) {
  const auto data = constant_random_fill(500, 0.0, 210.0, 42);
  for (const float v : data) EXPECT_EQ(v, data[0]);
  // Different seeds give different constants (Fig. 4: A and B differ).
  const auto other = constant_random_fill(500, 0.0, 210.0, 43);
  EXPECT_NE(data[0], other[0]);
}

TEST(Distributions, UniformFillRange) {
  const auto data = uniform_fill(10000, -2.0, 2.0, 42);
  const BufferStats stats = compute_stats(data);
  EXPECT_GE(stats.min, -2.0f);
  EXPECT_LT(stats.max, 2.0f);
  EXPECT_NEAR(stats.mean, 0.0, 0.1);
}

TEST(Distributions, StatsCountsZeros) {
  const std::vector<float> data{0.0f, 1.0f, 0.0f, -1.0f};
  EXPECT_EQ(compute_stats(data).zeros, 2u);
  EXPECT_EQ(compute_stats({}).zeros, 0u);
}

}  // namespace
}  // namespace gpupower::patterns
