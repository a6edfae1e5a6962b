// Bit-level utilities underpinning the input-dependent power analysis.
//
// The paper's causal hypothesis (Section V) is that GPU power tracks the
// number of bit flips (toggles) in datapaths and wires, plus how many bits
// are set (Hamming weight).  Everything in the energy model reduces to the
// primitives defined here: popcount, pairwise Hamming distance, bit
// alignment between multiplied operands, and toggle counts over operand
// streams.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <span>
#include <concepts>

#include "numeric/float16.hpp"
#include "numeric/int8.hpp"

namespace gpupower::numeric {

/// Mask keeping only the low `width` bits.
template <std::unsigned_integral W>
[[nodiscard]] constexpr W low_mask(int width) noexcept {
  return width >= static_cast<int>(sizeof(W) * 8)
             ? ~W{0}
             : static_cast<W>((W{1} << width) - 1);
}

/// Number of set bits in a word.
template <std::unsigned_integral W>
[[nodiscard]] constexpr int popcount(W w) noexcept {
  return std::popcount(w);
}

/// Hamming distance between two words: bits that would toggle if a wire
/// holding `a` is driven to `b`.
template <std::unsigned_integral W>
[[nodiscard]] constexpr int hamming_distance(W a, W b) noexcept {
  return std::popcount(static_cast<W>(a ^ b));
}

/// Hamming weight of a word restricted to its low `width` bits.
template <std::unsigned_integral W>
[[nodiscard]] constexpr int hamming_weight(W w, int width) noexcept {
  return std::popcount(static_cast<W>(w & low_mask<W>(width)));
}

/// Bit alignment in [0, 1]: 1 when every one of the low `width` bits of `a`
/// equals the corresponding bit of `b`, 0 when every bit differs
/// (paper Section IV-F definition).
template <std::unsigned_integral W>
[[nodiscard]] constexpr double bit_alignment(W a, W b, int width) noexcept {
  const int differing = std::popcount(static_cast<W>((a ^ b) & low_mask<W>(width)));
  return 1.0 - static_cast<double>(differing) / static_cast<double>(width);
}

/// Total toggle count across a stream of words, i.e. the number of wire
/// transitions a bus sees when the words are driven back to back.
/// This is the quantity the toggle-aware-compression literature (Pekhimenko
/// et al., HPCA'16) calls "bit toggles".
[[nodiscard]] std::uint64_t stream_toggles(std::span<const std::uint64_t> words) noexcept;
[[nodiscard]] std::uint64_t stream_toggles(std::span<const std::uint32_t> words) noexcept;
[[nodiscard]] std::uint64_t stream_toggles(std::span<const std::uint16_t> words) noexcept;
[[nodiscard]] std::uint64_t stream_toggles(std::span<const std::uint8_t> words) noexcept;

/// Total Hamming weight across a stream of words.
[[nodiscard]] std::uint64_t stream_weight(std::span<const std::uint64_t> words) noexcept;
[[nodiscard]] std::uint64_t stream_weight(std::span<const std::uint32_t> words) noexcept;
[[nodiscard]] std::uint64_t stream_weight(std::span<const std::uint16_t> words) noexcept;
[[nodiscard]] std::uint64_t stream_weight(std::span<const std::uint8_t> words) noexcept;

/// Average bit alignment between element-wise pairs of two equally long
/// streams (paper Fig. 8 x-axis).  `width` is the datatype bit width; the
/// words carry each element's raw storage bits in their low `width` bits.
/// The float16_t, int8_value_t and float overloads scan FP16, INT8 and
/// FP32 matrix storage in place (Matrix::span(); a float is read as its
/// bit pattern) and equal the uint32_t scan of gemm::raw_bits.
[[nodiscard]] double average_alignment(std::span<const std::uint32_t> a,
                                       std::span<const std::uint32_t> b,
                                       int width) noexcept;
[[nodiscard]] double average_alignment(std::span<const float16_t> a,
                                       std::span<const float16_t> b,
                                       int width) noexcept;
[[nodiscard]] double average_alignment(std::span<const int8_value_t> a,
                                       std::span<const int8_value_t> b,
                                       int width) noexcept;
[[nodiscard]] double average_alignment(std::span<const float> a,
                                       std::span<const float> b,
                                       int width) noexcept;

/// Average Hamming weight per element normalised by width (paper Fig. 8),
/// over the same four element types.
[[nodiscard]] double average_weight_fraction(std::span<const std::uint32_t> words,
                                             int width) noexcept;
[[nodiscard]] double average_weight_fraction(std::span<const float16_t> words,
                                             int width) noexcept;
[[nodiscard]] double average_weight_fraction(std::span<const int8_value_t> words,
                                             int width) noexcept;
[[nodiscard]] double average_weight_fraction(std::span<const float> words,
                                             int width) noexcept;

namespace detail {

/// The feature scans compiled for the portable baseline and under the
/// popcnt target (numeric/isa.hpp), one pair per element type.  The
/// public scans above pick one per CPU; the parity tests call both.  Call
/// a *_popcnt variant only when cpu_has_popcnt().
[[nodiscard]] double average_alignment_portable(
    std::span<const std::uint32_t> a,
    std::span<const std::uint32_t> b, int width) noexcept;
[[nodiscard]] double average_alignment_popcnt(
    std::span<const std::uint32_t> a,
    std::span<const std::uint32_t> b, int width) noexcept;
[[nodiscard]] double average_weight_fraction_portable(
    std::span<const std::uint32_t> words, int width) noexcept;
[[nodiscard]] double average_weight_fraction_popcnt(
    std::span<const std::uint32_t> words, int width) noexcept;
[[nodiscard]] double average_alignment_portable(
    std::span<const float16_t> a,
    std::span<const float16_t> b, int width) noexcept;
[[nodiscard]] double average_alignment_popcnt(
    std::span<const float16_t> a,
    std::span<const float16_t> b, int width) noexcept;
[[nodiscard]] double average_weight_fraction_portable(
    std::span<const float16_t> words, int width) noexcept;
[[nodiscard]] double average_weight_fraction_popcnt(
    std::span<const float16_t> words, int width) noexcept;
[[nodiscard]] double average_alignment_portable(
    std::span<const int8_value_t> a,
    std::span<const int8_value_t> b, int width) noexcept;
[[nodiscard]] double average_alignment_popcnt(
    std::span<const int8_value_t> a,
    std::span<const int8_value_t> b, int width) noexcept;
[[nodiscard]] double average_weight_fraction_portable(
    std::span<const int8_value_t> words, int width) noexcept;
[[nodiscard]] double average_weight_fraction_popcnt(
    std::span<const int8_value_t> words, int width) noexcept;
[[nodiscard]] double average_alignment_portable(
    std::span<const float> a, std::span<const float> b, int width) noexcept;
[[nodiscard]] double average_alignment_popcnt(
    std::span<const float> a, std::span<const float> b, int width) noexcept;
[[nodiscard]] double average_weight_fraction_portable(
    std::span<const float> words, int width) noexcept;
[[nodiscard]] double average_weight_fraction_popcnt(
    std::span<const float> words, int width) noexcept;

}  // namespace detail

}  // namespace gpupower::numeric
