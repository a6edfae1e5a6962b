#include "patterns/rng.hpp"

#include <cmath>
#include <numbers>

namespace gpupower::patterns {

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // consecutive zeros, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Xoshiro256::gaussian() noexcept {
  if (cached_gaussian_) {
    const double v = *cached_gaussian_;
    cached_gaussian_.reset();
    return v;
  }
  // Box-Muller; u1 in (0, 1] to keep the log finite.
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  return r * std::cos(theta);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) noexcept {
  SplitMix64 sm(base ^ (0xA5A5A5A55A5A5A5Aull + stream * 0x9E3779B97F4A7C15ull));
  sm.next();
  return sm.next();
}

}  // namespace gpupower::patterns
