#include "patterns/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gpupower::patterns {

std::vector<float> gaussian_fill(std::size_t count, double mean, double stddev,
                                 std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> out(count);
  for (auto& v : out) v = static_cast<float>(rng.gaussian(mean, stddev));
  return out;
}

std::vector<double> standard_normals(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> out(count);
  for (auto& v : out) v = rng.gaussian();
  return out;
}

std::vector<float> scale_normals(std::span<const double> normals, double mean,
                                 double stddev) {
  std::vector<float> out(normals.size());
  for (std::size_t i = 0; i < normals.size(); ++i) {
    out[i] = static_cast<float>(scale_normal(normals[i], mean, stddev));
  }
  return out;
}

std::vector<float> value_set_fill(std::size_t count, std::size_t set_size,
                                  double mean, double stddev,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> set(std::max<std::size_t>(set_size, 1));
  for (auto& v : set) v = static_cast<float>(rng.gaussian(mean, stddev));
  std::vector<float> out(count);
  for (auto& v : out) v = set[rng.uniform_below(set.size())];
  return out;
}

std::vector<float> constant_random_fill(std::size_t count, double mean,
                                        double stddev, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto value = static_cast<float>(rng.gaussian(mean, stddev));
  return std::vector<float>(count, value);
}

std::vector<float> uniform_fill(std::size_t count, double lo, double hi,
                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> out(count);
  for (auto& v : out) v = static_cast<float>(rng.uniform(lo, hi));
  return out;
}

BufferStats compute_stats(const std::vector<float>& data) {
  BufferStats s;
  if (data.empty()) return s;
  s.min = std::numeric_limits<float>::infinity();
  s.max = -std::numeric_limits<float>::infinity();
  double sum = 0.0;
  for (const float v : data) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    if (v == 0.0f) ++s.zeros;
  }
  s.mean = sum / static_cast<double>(data.size());
  double sq = 0.0;
  for (const float v : data) {
    const double d = v - s.mean;
    sq += d * d;
  }
  s.stddev = std::sqrt(sq / static_cast<double>(data.size()));
  return s;
}

}  // namespace gpupower::patterns
