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
/// storage offset.
struct Ranked {
  std::uint32_t key;
  std::uint32_t pos;
};

/// 32-bit offsets cover every buffer up to kMaxN^2 = 2^32 elements.
constexpr std::uint64_t kMaxRankedElements = std::uint64_t{1} << 32;

/// Stable LSD radix sort by key, three passes of 11-bit digits: equal keys
/// keep their input order.  The last pass writes the sorted positions
/// alone to `out`.
void radix_rank(std::vector<Ranked>& ranked, std::vector<Ranked>& spare,
                std::uint32_t* out) {
  constexpr int kDigitBits = 11;
  constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
  spare.resize(ranked.size());
  for (int shift = 0; shift < 32; shift += kDigitBits) {
    std::array<std::size_t, kDigitMask + 1> start{};
    for (const Ranked& r : ranked) ++start[(r.key >> shift) & kDigitMask];
    std::size_t sum = 0;
    for (std::size_t& s : start) sum += std::exchange(s, sum);
    if (shift + kDigitBits >= 32) {
      for (const Ranked& r : ranked) {
        out[start[(r.key >> shift) & kDigitMask]++] = r.pos;
      }
      return;
    }
    for (const Ranked& r : ranked) {
      spare[start[(r.key >> shift) & kDigitMask]++] = r;
    }
    ranked.swap(spare);
  }
}

/// Storage offsets of a logical buffer's slots in traversal order:
/// row-major, or column-major over a rows x cols matrix.
class SlotCursor {
 public:
  SlotCursor(std::size_t rows, std::size_t cols, bool column_major) noexcept
      : rows_(rows), cols_(cols), column_major_(column_major) {}

  std::size_t next() noexcept {
    if (!column_major_) return row_++;
    const std::size_t at = row_ * cols_ + col_;
    if (++row_ == rows_) {
      row_ = 0;
      ++col_;
    }
    return at;
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  bool column_major_;
  std::size_t row_ = 0;  ///< the flat offset when row-major
  std::size_t col_ = 0;
};

/// The paper's rule over one logical buffer of order.size() values: the k
/// values `order` ranks lowest fill the first k slots of `dst`, ascending,
/// and every value not taken follows in traversal order.
void place_buffer(const float* src, std::span<const std::uint32_t> order,
                  std::size_t k, SlotCursor slots, float* dst,
                  std::vector<unsigned char>& taken) {
  const std::size_t n = order.size();
  SlotCursor writes = slots;
  if (k >= n) {
    for (const std::uint32_t at : order) dst[writes.next()] = src[at];
    return;
  }
  taken.assign(n, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t at = order[i];
    dst[writes.next()] = src[at];
    taken[at] = 1;
  }
  SlotCursor reads = slots;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = reads.next();
    if (taken[at] == 0) dst[writes.next()] = src[at];
  }
}

/// rank() then apply_ranking() over `data` itself, from a copy.
void sort_in_place(std::span<float> data, std::size_t rows, std::size_t cols,
                   Traversal traversal, double percent) {
  const std::size_t k = sorted_count(traversal, rows, cols, percent);
  if (k == 0) return;
  const Ranking ranking = rank(data, rows, cols, traversal);
  const std::span<float> matrix = data.first(rows * cols);
  const std::vector<float> src(matrix.begin(), matrix.end());
  apply_ranking(src, ranking, rows, cols, traversal, k, matrix);
}

}  // namespace

Ranking rank(std::span<const float> data, std::size_t rows, std::size_t cols,
             Traversal traversal) {
  const std::size_t n = rows * cols;
  if (n > kMaxRankedElements) {
    throw std::length_error("placement: traversal exceeds 2^32 elements");
  }
  Ranking ranking(n);
  std::vector<Ranked> ranked;
  std::vector<Ranked> spare;
  switch (traversal) {
    case Traversal::kRows:
      ranked.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        ranked[i] = Ranked{order_key(data[i]), static_cast<std::uint32_t>(i)};
      }
      radix_rank(ranked, spare, ranking.data());
      break;
    case Traversal::kColumns: {
      ranked.resize(n);
      std::size_t i = 0;
      for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rows; ++r) {
          const std::size_t at = r * cols + c;
          ranked[i++] =
              Ranked{order_key(data[at]), static_cast<std::uint32_t>(at)};
        }
      }
      radix_rank(ranked, spare, ranking.data());
      break;
    }
    case Traversal::kWithinRows:
      for (std::size_t r = 0; r < rows; ++r) {
        ranked.resize(cols);
        const std::span<const float> row = data.subspan(r * cols, cols);
        for (std::size_t c = 0; c < cols; ++c) {
          ranked[c] = Ranked{order_key(row[c]), static_cast<std::uint32_t>(c)};
        }
        radix_rank(ranked, spare, ranking.data() + r * cols);
      }
      break;
  }
  return ranking;
}

std::size_t sorted_count(Traversal traversal, std::size_t rows,
                         std::size_t cols, double percent) {
  const std::size_t n =
      traversal == Traversal::kWithinRows ? cols : rows * cols;
  return static_cast<std::size_t>(std::llround(
      std::clamp(percent, 0.0, 100.0) / 100.0 * static_cast<double>(n)));
}

void apply_ranking(std::span<const float> src,
                   std::span<const std::uint32_t> ranking, std::size_t rows,
                   std::size_t cols, Traversal traversal, std::size_t k,
                   std::span<float> dst) {
  std::vector<unsigned char> taken;
  if (traversal != Traversal::kWithinRows) {
    place_buffer(src.data(), ranking.first(rows * cols), k,
                 SlotCursor(rows, cols, traversal == Traversal::kColumns),
                 dst.data(), taken);
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    place_buffer(src.data() + r * cols, ranking.subspan(r * cols, cols), k,
                 SlotCursor(1, cols, false), dst.data() + r * cols, taken);
  }
}

void partial_sort_flat(std::vector<float>& data, double percent) {
  sort_in_place(data, 1, data.size(), Traversal::kRows, percent);
}

void partial_sort_rows(std::vector<float>& data, std::size_t rows,
                       std::size_t cols, double percent) {
  sort_in_place(data, rows, cols, Traversal::kRows, percent);
}

void partial_sort_columns(std::vector<float>& data, std::size_t rows,
                          std::size_t cols, double percent) {
  sort_in_place(data, rows, cols, Traversal::kColumns, percent);
}

void partial_sort_within_rows(std::vector<float>& data, std::size_t rows,
                              std::size_t cols, double percent) {
  sort_in_place(data, rows, cols, Traversal::kWithinRows, percent);
}

void full_sort(std::vector<float>& data) {
  sort_in_place(data, 1, data.size(), Traversal::kRows, 100.0);
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
