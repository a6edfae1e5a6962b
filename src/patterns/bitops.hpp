// Bit-level input transforms for the bit-similarity (Fig. 4) and bit-level
// sparsity (Figs. 6c/6d) experiments.  These act on the *storage bits of the
// target datatype*, so they are templated over element types and applied
// after numeric conversion — flipping "bit 3" of an FP16 value is a
// different physical event than flipping bit 3 of the FP32 original.
#pragma once

#include <cstdint>
#include <span>

#include "numeric/bits.hpp"
#include "numeric/scalar_traits.hpp"
#include "patterns/rng.hpp"

namespace gpupower::patterns {

/// Fig. 4a: flips `flips` random bit positions in every element (positions
/// drawn without replacement per element).  flips=0 leaves the constant fill
/// intact; flips=width yields fully complemented (still deterministic) bits.
template <typename T>
void flip_random_bits(std::span<T> data, int flips, std::uint64_t seed) {
  using traits = gpupower::numeric::scalar_traits<T>;
  using W = typename traits::bits_type;
  constexpr int kWidth = traits::kBits;
  if (flips <= 0) return;
  if (flips >= kWidth) {
    // A full Fisher-Yates pass flips every position exactly once, and the
    // RNG is local to this call: the result is the complement, whatever
    // the draws would have been.
    const W all = gpupower::numeric::low_mask<W>(kWidth);
    for (auto& elem : data) {
      elem = traits::from_bits(static_cast<W>(traits::to_bits(elem) ^ all));
    }
    return;
  }
  Xoshiro256 rng(seed);
  for (auto& elem : data) {
    W bits = traits::to_bits(elem);
    // Partial Fisher-Yates over bit positions.
    int positions[64];
    for (int i = 0; i < kWidth; ++i) positions[i] = i;
    for (int i = 0; i < flips; ++i) {
      const int j = i + static_cast<int>(rng.uniform_below(
                            static_cast<std::uint64_t>(kWidth - i)));
      std::swap(positions[i], positions[j]);
      bits ^= static_cast<W>(W{1} << positions[i]);
    }
    elem = traits::from_bits(bits);
  }
}

/// Fig. 4b: replaces the `count` least significant bits of every element
/// with uniformly random bits.
template <typename T>
void randomize_low_bits(std::span<T> data, int count, std::uint64_t seed) {
  using traits = gpupower::numeric::scalar_traits<T>;
  using W = typename traits::bits_type;
  constexpr int kWidth = traits::kBits;
  if (count <= 0) return;
  if (count > kWidth) count = kWidth;
  const W mask = gpupower::numeric::low_mask<W>(count);
  Xoshiro256 rng(seed);
  for (auto& elem : data) {
    W bits = traits::to_bits(elem);
    bits = static_cast<W>((bits & static_cast<W>(~mask)) |
                          (static_cast<W>(rng.next()) & mask));
    elem = traits::from_bits(bits);
  }
}

/// Fig. 4c: replaces the `count` most significant bits with random bits.
template <typename T>
void randomize_high_bits(std::span<T> data, int count, std::uint64_t seed) {
  using traits = gpupower::numeric::scalar_traits<T>;
  using W = typename traits::bits_type;
  constexpr int kWidth = traits::kBits;
  if (count <= 0) return;
  if (count > kWidth) count = kWidth;
  const W high_mask =
      static_cast<W>(gpupower::numeric::low_mask<W>(count) << (kWidth - count));
  Xoshiro256 rng(seed);
  for (auto& elem : data) {
    W bits = traits::to_bits(elem);
    bits = static_cast<W>((bits & static_cast<W>(~high_mask)) |
                          (static_cast<W>(rng.next()) & high_mask));
    elem = traits::from_bits(bits);
  }
}

/// Fig. 6c: zeroes the `count` least significant bits of every element.
template <typename T>
void zero_low_bits(std::span<T> data, int count) {
  using traits = gpupower::numeric::scalar_traits<T>;
  using W = typename traits::bits_type;
  constexpr int kWidth = traits::kBits;
  if (count <= 0) return;
  if (count > kWidth) count = kWidth;
  const W mask = static_cast<W>(~gpupower::numeric::low_mask<W>(count));
  for (auto& elem : data) {
    elem = traits::from_bits(static_cast<W>(traits::to_bits(elem) & mask));
  }
}

/// Fig. 6d: zeroes the `count` most significant bits of every element.
template <typename T>
void zero_high_bits(std::span<T> data, int count) {
  using traits = gpupower::numeric::scalar_traits<T>;
  using W = typename traits::bits_type;
  constexpr int kWidth = traits::kBits;
  if (count <= 0) return;
  if (count > kWidth) count = kWidth;
  const W mask = static_cast<W>(
      ~static_cast<W>(gpupower::numeric::low_mask<W>(count) << (kWidth - count)));
  for (auto& elem : data) {
    elem = traits::from_bits(static_cast<W>(traits::to_bits(elem) & mask));
  }
}

}  // namespace gpupower::patterns
