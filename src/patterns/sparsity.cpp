#include "patterns/sparsity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "patterns/placement.hpp"
#include "patterns/rng.hpp"

namespace gpupower::patterns {

namespace detail {

template <typename Index>
void sparsify_draws(std::span<float> data, std::size_t k, std::uint64_t seed) {
  // Partial Fisher-Yates: choose k distinct positions.
  const std::size_t n = data.size();
  std::vector<Index> idx(n);
  std::iota(idx.begin(), idx.end(), Index{0});
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.uniform_below(n - i);
    std::swap(idx[i], idx[j]);
    data[idx[i]] = 0.0f;
  }
}

template void sparsify_draws<std::uint32_t>(std::span<float>, std::size_t,
                                            std::uint64_t);
template void sparsify_draws<std::size_t>(std::span<float>, std::size_t,
                                          std::uint64_t);

}  // namespace detail

void sparsify(std::vector<float>& data, double fraction, std::uint64_t seed) {
  const std::size_t n = data.size();
  const auto k = static_cast<std::size_t>(
      std::llround(std::clamp(fraction, 0.0, 1.0) * static_cast<double>(n)));
  if (k == 0) return;
  if (k == n) {
    // The draws visit every position exactly once: whatever they are, the
    // result is all zeros.
    std::fill(data.begin(), data.end(), 0.0f);
    return;
  }
  if (n <= std::numeric_limits<std::uint32_t>::max()) {
    detail::sparsify_draws<std::uint32_t>(data, k, seed);
  } else {
    detail::sparsify_draws<std::size_t>(data, k, seed);
  }
}

void sparsify_after_sort(std::vector<float>& data, double fraction,
                         std::uint64_t seed) {
  full_sort(data);
  sparsify(data, fraction, seed);
}

void sparsify_2_4(std::vector<float>& data) {
  const std::size_t groups = data.size() / 4;
  for (std::size_t g = 0; g < groups; ++g) {
    float* p = data.data() + g * 4;
    // Indices of the two smallest magnitudes within the group of four.
    std::size_t order[4] = {0, 1, 2, 3};
    std::stable_sort(order, order + 4, [&](std::size_t a, std::size_t b) {
      return std::fabs(p[a]) < std::fabs(p[b]);
    });
    p[order[0]] = 0.0f;
    p[order[1]] = 0.0f;
  }
}

double measured_sparsity(const std::vector<float>& data) {
  if (data.empty()) return 0.0;
  const auto zeros = static_cast<double>(
      std::count(data.begin(), data.end(), 0.0f));
  return zeros / static_cast<double>(data.size());
}

}  // namespace gpupower::patterns
