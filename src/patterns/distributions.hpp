// Value-distribution generators for the experiments in Section IV-A.
// All floating-point experiments generate FP32 values first and convert to
// the target datatype afterwards (Section III), so every generator here
// returns float buffers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "patterns/rng.hpp"

namespace gpupower::patterns {

/// Gaussian(mean, stddev) fill — Figs. 2, 3a (sweep stddev), 3b (sweep mean).
[[nodiscard]] std::vector<float> gaussian_fill(std::size_t count, double mean,
                                               double stddev, std::uint64_t seed);

/// The standard normals behind gaussian_fill(count, mean, stddev, seed):
/// its value i is float(scale_normal(normals[i], mean, stddev)) for every
/// mean and stddev.
[[nodiscard]] std::vector<double> standard_normals(std::size_t count,
                                                   std::uint64_t seed);

/// gaussian_fill(normals.size(), mean, stddev, seed), bit for bit, from
/// standard_normals(normals.size(), seed).
[[nodiscard]] std::vector<float> scale_normals(std::span<const double> normals,
                                               double mean, double stddev);

/// "Inputs from a set" (Fig. 3c): draw `set_size` Gaussian values once, then
/// fill the buffer by sampling uniformly with replacement from that set.
[[nodiscard]] std::vector<float> value_set_fill(std::size_t count,
                                                std::size_t set_size, double mean,
                                                double stddev, std::uint64_t seed);

/// Constant fill with a single Gaussian-drawn value — the starting point of
/// the bit-similarity experiments (Fig. 4), where matrix A holds one random
/// value and B another.
[[nodiscard]] std::vector<float> constant_random_fill(std::size_t count,
                                                      double mean, double stddev,
                                                      std::uint64_t seed);

/// Uniform fill in [lo, hi) — used by ablations and tests.
[[nodiscard]] std::vector<float> uniform_fill(std::size_t count, double lo,
                                              double hi, std::uint64_t seed);

/// Summary statistics of a generated buffer (used by tests and the power
/// model's feature extraction).
struct BufferStats {
  double mean = 0.0;
  double stddev = 0.0;
  float min = 0.0f;
  float max = 0.0f;
  std::size_t zeros = 0;
};

[[nodiscard]] BufferStats compute_stats(const std::vector<float>& data);

}  // namespace gpupower::patterns
