// Value-level sparsity transforms for Section IV-D (Figs. 6a and 6b).
// Bit-level "sparsity" (zeroing LSBs/MSBs, Figs. 6c/6d) lives in bitops.hpp
// because it acts on the target datatype's storage bits.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

namespace gpupower::patterns {

/// Zeroes a uniformly random `fraction` of the elements (Fig. 6a).  The
/// number of zeroed positions is round(fraction * size); positions are drawn
/// without replacement so the realised sparsity is exact.
void sparsify(std::vector<float>& data, double fraction, std::uint64_t seed);

namespace detail {

/// sparsify's draw loop: a partial Fisher-Yates pass zeroing k distinct
/// positions of `data`, over a position array of type Index.  sparsify
/// uses 32-bit positions when they fit (half the array's memory traffic);
/// both widths draw the same positions.  Instantiated for std::uint32_t
/// and std::size_t.
template <typename Index>
void sparsify_draws(std::span<float> data, std::size_t k, std::uint64_t seed);

}  // namespace detail

/// Fig. 6b helper: fully sorts the buffer ascending and then applies random
/// sparsity, destroying the value locality the sort created.
void sparsify_after_sort(std::vector<float>& data, double fraction,
                         std::uint64_t seed);

/// Structured 2:4 sparsity (NVIDIA sparse-tensor-core format): within every
/// group of four consecutive elements, zero the two smallest magnitudes.
/// Used by the power-aware sparsity designer (Section V future work).
void sparsify_2_4(std::vector<float>& data);

/// Fraction of exactly-zero elements.
[[nodiscard]] double measured_sparsity(const std::vector<float>& data);

}  // namespace gpupower::patterns
