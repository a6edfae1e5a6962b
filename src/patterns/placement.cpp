#include "patterns/placement.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

namespace gpupower::patterns {
namespace {

/// Order-preserving integer image of a finite float under `<`: a < b
/// exactly when order_key(a) < order_key(b), and -0 and +0 (equal under
/// `<`) share one key.  Placement runs on generated values, which are
/// always finite.
std::uint32_t order_key(float value) noexcept {
  const std::uint32_t bits =
      value == 0.0f ? 0u : std::bit_cast<std::uint32_t>(value);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

/// One element of a logical buffer: its value's order key and its
/// position.
struct Ranked {
  std::uint32_t key;
  std::uint32_t pos;
};

/// 32-bit positions cover every buffer up to kMaxN^2 = 2^32 elements.
constexpr std::uint64_t kMaxRankedElements = std::uint64_t{1} << 32;

/// Buffers reused across the logical buffers of one call (the rows of
/// partial_sort_within_rows).
struct RankScratch {
  std::vector<Ranked> ranked;
  std::vector<Ranked> spare;
  std::vector<float> lowest;
  std::vector<bool> taken;
};

/// Stable LSD radix sort by key, three passes of 11-bit digits: equal keys
/// keep their input order.
void radix_sort_by_key(std::vector<Ranked>& ranked, std::vector<Ranked>& spare) {
  constexpr int kDigitBits = 11;
  constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
  spare.resize(ranked.size());
  for (int shift = 0; shift < 32; shift += kDigitBits) {
    std::array<std::size_t, kDigitMask + 1> start{};
    for (const Ranked& r : ranked) ++start[(r.key >> shift) & kDigitMask];
    std::size_t sum = 0;
    for (std::size_t& s : start) sum += std::exchange(s, sum);
    for (const Ranked& r : ranked) {
      spare[start[(r.key >> shift) & kDigitMask]++] = r;
    }
    ranked.swap(spare);
  }
}

std::size_t sorted_count(std::size_t n, double percent) {
  return static_cast<std::size_t>(std::llround(
      std::clamp(percent, 0.0, 100.0) / 100.0 * static_cast<double>(n)));
}

/// The paper's partial-sort rule over one contiguous logical buffer: the k
/// smallest values, ascending, fill the first k slots; every other value
/// keeps its original relative order behind them.  Ranking (value,
/// position) pairs in position order with a stable sort on value orders
/// ties, -0 against +0 included, by position.
void partial_sort_logical(std::span<float> v, std::size_t k,
                          RankScratch& scratch) {
  const std::size_t n = v.size();
  if (k == 0) return;
  if (n > kMaxRankedElements) {
    throw std::length_error("partial sort: buffer exceeds 2^32 elements");
  }
  auto& ranked = scratch.ranked;
  ranked.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ranked[i] = Ranked{order_key(v[i]), static_cast<std::uint32_t>(i)};
  }
  radix_sort_by_key(ranked, scratch.spare);

  auto& lowest = scratch.lowest;
  auto& taken = scratch.taken;
  lowest.resize(k);
  taken.assign(n, false);
  for (std::size_t i = 0; i < k; ++i) {
    lowest[i] = v[ranked[i].pos];
    taken[ranked[i].pos] = true;
  }
  // Stable back-to-front compaction of the values not taken into slots
  // [k, n).  The write cursor never falls below the read cursor, so it
  // runs in place.
  std::size_t w = n;
  for (std::size_t i = n; i-- > 0;) {
    if (!taken[i]) v[--w] = v[i];
  }
  std::copy(lowest.begin(), lowest.end(), v.begin());
}

void partial_sort_contiguous(std::span<float> v, double percent) {
  RankScratch scratch;
  partial_sort_logical(v, sorted_count(v.size(), percent), scratch);
}

}  // namespace

void partial_sort_flat(std::vector<float>& data, double percent) {
  partial_sort_contiguous(data, percent);
}

void partial_sort_rows(std::vector<float>& data, std::size_t rows,
                       std::size_t cols, double percent) {
  partial_sort_contiguous(std::span<float>(data).first(rows * cols), percent);
}

void partial_sort_columns(std::vector<float>& data, std::size_t rows,
                          std::size_t cols, double percent) {
  if (sorted_count(rows * cols, percent) == 0) return;
  std::vector<float> column_major(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      column_major[c * rows + r] = data[r * cols + c];
    }
  }
  partial_sort_contiguous(column_major, percent);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      data[r * cols + c] = column_major[c * rows + r];
    }
  }
}

void partial_sort_within_rows(std::vector<float>& data, std::size_t rows,
                              std::size_t cols, double percent) {
  const std::size_t k = sorted_count(cols, percent);
  RankScratch scratch;
  for (std::size_t r = 0; r < rows; ++r) {
    partial_sort_logical(std::span<float>(data).subspan(r * cols, cols), k,
                         scratch);
  }
}

void full_sort(std::vector<float>& data) {
  std::sort(data.begin(), data.end());
}

void sort_rows_by_mean(std::vector<float>& data, std::size_t rows,
                       std::size_t cols, bool ascending) {
  std::vector<double> means(rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) sum += data[r * cols + c];
    means[r] = sum / static_cast<double>(cols);
  }
  std::vector<std::size_t> order(rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ascending ? means[a] < means[b] : means[a] > means[b];
  });
  std::vector<float> out(data.size());
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(order[r] * cols),
              data.begin() + static_cast<std::ptrdiff_t>((order[r] + 1) * cols),
              out.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  data = std::move(out);
}

}  // namespace gpupower::patterns
