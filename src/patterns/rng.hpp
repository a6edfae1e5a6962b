// Deterministic, platform-independent random number generation.
//
// The paper averages every experiment over 10 seeds with A and B drawn from
// different seeds (Section III).  Reproducing that protocol requires bit-
// identical random streams across compilers, so we implement our own
// xoshiro256** engine and Box-Muller Gaussian instead of relying on the
// implementation-defined std::normal_distribution.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>

namespace gpupower::patterns {

/// The one expression behind every Gaussian value the simulator draws:
/// `mean + stddev * standard`.  Xoshiro256::gaussian(mean, stddev),
/// gaussian_fill and the scaling of shared standard normals
/// (distributions.hpp) all go through it, so a value is the same bytes
/// whether it is drawn directly or scaled from a stored standard normal.
[[nodiscard]] constexpr double scale_normal(double standard, double mean,
                                            double stddev) noexcept {
  return mean + stddev * standard;
}

/// SplitMix64: used to expand a single seed into engine state (the
/// initialisation recommended by the xoshiro authors).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  // The per-element draws are defined here so the input generators'
  // loops inline them.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }
  std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~std::uint64_t{0}; }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire reduction).
  std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (l < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Box-Muller; caches the second variate.
  double gaussian() noexcept;

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept {
    return scale_normal(gaussian(), mean, stddev);
  }

 private:
  std::uint64_t s_[4];
  std::optional<double> cached_gaussian_;
};

/// Derives a stream-specific seed so that e.g. the A and B matrices of the
/// same experiment replica never share a random stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) noexcept;

}  // namespace gpupower::patterns
