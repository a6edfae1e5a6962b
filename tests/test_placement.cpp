#include "patterns/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "patterns/distributions.hpp"

namespace gpupower::patterns {
namespace {

std::multiset<float> multiset_of(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

TEST(Placement, ZeroPercentIsIdentity) {
  auto data = gaussian_fill(256, 0.0, 210.0, 42);
  const auto original = data;
  partial_sort_rows(data, 16, 16, 0.0);
  EXPECT_EQ(data, original);
}

TEST(Placement, HundredPercentFullySorts) {
  auto data = gaussian_fill(256, 0.0, 210.0, 42);
  partial_sort_rows(data, 16, 16, 100.0);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(Placement, PartialSortPlacesLowestPrefix) {
  // Paper definition: the lowest n% of values, sorted ascending, land in the
  // first n% of row-major indices.
  auto data = gaussian_fill(400, 0.0, 210.0, 42);
  const auto original = data;
  partial_sort_rows(data, 20, 20, 25.0);

  auto sorted = original;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(data[i], sorted[i]) << "prefix index " << i;
  }
  // The remainder keeps the original relative order.
  std::vector<float> expected_rest;
  const std::multiset<float> lowest(sorted.begin(), sorted.begin() + 100);
  std::multiset<float> budget = lowest;
  for (const float v : original) {
    auto it = budget.find(v);
    if (it != budget.end()) {
      budget.erase(it);
    } else {
      expected_rest.push_back(v);
    }
  }
  for (std::size_t i = 0; i < expected_rest.size(); ++i) {
    EXPECT_EQ(data[100 + i], expected_rest[i]) << "rest index " << i;
  }
}

TEST(Placement, PreservesMultiset) {
  auto data = gaussian_fill(1024, 0.0, 210.0, 42);
  const auto before = multiset_of(data);
  partial_sort_rows(data, 32, 32, 40.0);
  EXPECT_EQ(multiset_of(data), before);

  auto data2 = gaussian_fill(1024, 0.0, 210.0, 43);
  const auto before2 = multiset_of(data2);
  partial_sort_columns(data2, 32, 32, 60.0);
  EXPECT_EQ(multiset_of(data2), before2);

  auto data3 = gaussian_fill(1024, 0.0, 210.0, 44);
  const auto before3 = multiset_of(data3);
  partial_sort_within_rows(data3, 32, 32, 50.0);
  EXPECT_EQ(multiset_of(data3), before3);
}

TEST(Placement, ColumnSortFillsLeftColumns) {
  auto data = gaussian_fill(64, 0.0, 210.0, 42);
  partial_sort_columns(data, 8, 8, 100.0);
  // Fully column-sorted: reading column-major must be ascending.
  std::vector<float> column_major;
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t r = 0; r < 8; ++r) column_major.push_back(data[r * 8 + c]);
  }
  EXPECT_TRUE(std::is_sorted(column_major.begin(), column_major.end()));
}

TEST(Placement, WithinRowsSortsEachRowIndependently) {
  auto data = gaussian_fill(256, 0.0, 210.0, 42);
  const auto original = data;
  partial_sort_within_rows(data, 16, 16, 100.0);
  for (std::size_t r = 0; r < 16; ++r) {
    std::vector<float> row(data.begin() + static_cast<std::ptrdiff_t>(r * 16),
                           data.begin() + static_cast<std::ptrdiff_t>((r + 1) * 16));
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "row " << r;
    // Row contents unchanged (only reordered within the row).
    std::vector<float> orig_row(
        original.begin() + static_cast<std::ptrdiff_t>(r * 16),
        original.begin() + static_cast<std::ptrdiff_t>((r + 1) * 16));
    EXPECT_EQ(multiset_of(row), multiset_of(orig_row)) << "row " << r;
  }
}

TEST(Placement, FullSortAscending) {
  auto data = gaussian_fill(512, 0.0, 210.0, 42);
  full_sort(data);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(Placement, SortRowsByMeanOrdersRowMeans) {
  auto data = gaussian_fill(256, 0.0, 210.0, 42);
  sort_rows_by_mean(data, 16, 16);
  double prev = -1e30;
  for (std::size_t r = 0; r < 16; ++r) {
    double mean = 0.0;
    for (std::size_t c = 0; c < 16; ++c) mean += data[r * 16 + c];
    mean /= 16.0;
    EXPECT_GE(mean, prev) << "row " << r;
    prev = mean;
  }
}

// --- parity with the stable-sort reference ---------------------------------
//
// The rank-pair placement must reproduce, byte for byte, the algorithm it
// replaced: a stable sort of every traversal slot by value, the k smallest
// written ascending to the first k slots and the rest in traversal order.

void oracle_partial_sort(std::vector<float>& data,
                         const std::vector<std::size_t>& traversal,
                         double percent) {
  const std::size_t n = traversal.size();
  const auto k = static_cast<std::size_t>(
      std::llround(std::clamp(percent, 0.0, 100.0) / 100.0 *
                   static_cast<double>(n)));
  if (k == 0) return;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return data[traversal[a]] < data[traversal[b]];
                   });
  std::vector<float> lowest(k);
  for (std::size_t i = 0; i < k; ++i) lowest[i] = data[traversal[order[i]]];
  std::vector<bool> selected(n, false);
  for (std::size_t i = 0; i < k; ++i) selected[order[i]] = true;
  std::vector<float> rest;
  for (std::size_t i = 0; i < n; ++i) {
    if (!selected[i]) rest.push_back(data[traversal[i]]);
  }
  for (std::size_t i = 0; i < k; ++i) data[traversal[i]] = lowest[i];
  for (std::size_t i = k; i < n; ++i) data[traversal[i]] = rest[i - k];
}

std::vector<std::size_t> row_major(std::size_t rows, std::size_t cols) {
  std::vector<std::size_t> t(rows * cols);
  std::iota(t.begin(), t.end(), std::size_t{0});
  return t;
}

std::vector<std::size_t> column_major(std::size_t rows, std::size_t cols) {
  std::vector<std::size_t> t;
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) t.push_back(r * cols + c);
  }
  return t;
}

void oracle_within_rows(std::vector<float>& data, std::size_t rows,
                        std::size_t cols, double percent) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<float> row(
        data.begin() + static_cast<std::ptrdiff_t>(r * cols),
        data.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
    oracle_partial_sort(row, row_major(1, cols), percent);
    std::copy(row.begin(), row.end(),
              data.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Gaussian, heavy ties (a 3-value set), and signed zeros mixed with ties.
std::vector<std::pair<std::string, std::vector<float>>> parity_inputs(
    std::size_t count) {
  std::vector<float> signed_zeros(count);
  for (std::size_t i = 0; i < count; ++i) {
    const float pick[] = {0.0f, -0.0f, 1.5f, -0.0f, -2.0f, 0.0f, 1.5f};
    signed_zeros[i] = pick[(i * 5 + i / 3) % 7];
  }
  return {{"gaussian", gaussian_fill(count, 0.0, 210.0, 11)},
          {"value_set", value_set_fill(count, 3, 0.0, 210.0, 12)},
          {"signed_zeros", std::move(signed_zeros)}};
}

constexpr double kParityPercents[] = {0.0, 0.1, 20.0, 33.3, 50.0, 99.99,
                                      100.0};

void expect_parity(std::size_t rows, std::size_t cols) {
  for (const auto& [kind, values] : parity_inputs(rows * cols)) {
    for (const double pct : kParityPercents) {
      const std::string where = kind + " " + std::to_string(rows) + "x" +
                                std::to_string(cols) + " " +
                                std::to_string(pct) + "%";
      auto want = values;
      auto got = values;
      oracle_partial_sort(want, row_major(1, rows * cols), pct);
      partial_sort_flat(got, pct);
      EXPECT_TRUE(same_bytes(got, want)) << "flat " << where;

      want = values;
      got = values;
      oracle_partial_sort(want, row_major(rows, cols), pct);
      partial_sort_rows(got, rows, cols, pct);
      EXPECT_TRUE(same_bytes(got, want)) << "rows " << where;

      want = values;
      got = values;
      oracle_partial_sort(want, column_major(rows, cols), pct);
      partial_sort_columns(got, rows, cols, pct);
      EXPECT_TRUE(same_bytes(got, want)) << "columns " << where;

      want = values;
      got = values;
      oracle_within_rows(want, rows, cols, pct);
      partial_sort_within_rows(got, rows, cols, pct);
      EXPECT_TRUE(same_bytes(got, want)) << "within_rows " << where;
    }
  }
}

TEST(PlacementParity, MatchesStableSortOracleSquare) {
  for (const std::size_t n : {1u, 7u, 64u, 256u}) expect_parity(n, n);
}

TEST(PlacementParity, MatchesStableSortOracleNonSquare) {
  expect_parity(5, 37);
  expect_parity(48, 3);
}

TEST(PlacementParity, OneRankingAppliedAtEveryPercent) {
  // The memoised path: a shared buffer ranked once per traversal, then
  // applied into a separate buffer at every sort level.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {7, 7}, {64, 64}, {5, 37}, {48, 3}};
  for (const auto& [rows, cols] : shapes) {
    for (const auto& [kind, values] : parity_inputs(rows * cols)) {
      const Ranking by_rows = rank(values, rows, cols, Traversal::kRows);
      const Ranking by_columns = rank(values, rows, cols, Traversal::kColumns);
      const Ranking within = rank(values, rows, cols, Traversal::kWithinRows);
      for (const double pct : kParityPercents) {
        const std::string where = kind + " " + std::to_string(rows) + "x" +
                                  std::to_string(cols) + " " +
                                  std::to_string(pct) + "%";
        std::vector<float> got(values.size());

        auto want = values;
        oracle_partial_sort(want, row_major(rows, cols), pct);
        apply_ranking(values, by_rows, rows, cols, Traversal::kRows,
                      sorted_count(Traversal::kRows, rows, cols, pct), got);
        EXPECT_TRUE(same_bytes(got, want)) << "rows " << where;

        want = values;
        oracle_partial_sort(want, column_major(rows, cols), pct);
        apply_ranking(values, by_columns, rows, cols, Traversal::kColumns,
                      sorted_count(Traversal::kColumns, rows, cols, pct), got);
        EXPECT_TRUE(same_bytes(got, want)) << "columns " << where;

        want = values;
        oracle_within_rows(want, rows, cols, pct);
        apply_ranking(values, within, rows, cols, Traversal::kWithinRows,
                      sorted_count(Traversal::kWithinRows, rows, cols, pct),
                      got);
        EXPECT_TRUE(same_bytes(got, want)) << "within_rows " << where;
      }
    }
  }
}

TEST(PlacementParity, FullSortIsStable) {
  // -0 and +0 compare equal, so a stable sort keeps them in input order
  // (std::sort promises nothing there).
  for (const auto& [kind, values] : parity_inputs(1000)) {
    auto want = values;
    std::stable_sort(want.begin(), want.end());
    auto got = values;
    full_sort(got);
    EXPECT_TRUE(same_bytes(got, want)) << kind;
  }
  std::vector<float> zeros{0.0f, -0.0f, 1.0f, -0.0f, 0.0f, -1.0f};
  full_sort(zeros);
  const std::vector<float> want{-1.0f, 0.0f, -0.0f, -0.0f, 0.0f, 1.0f};
  EXPECT_TRUE(same_bytes(zeros, want));
}

class PlacementPercentSweep : public ::testing::TestWithParam<double> {};

TEST_P(PlacementPercentSweep, PrefixSortedInvariant) {
  const double pct = GetParam();
  auto data = gaussian_fill(900, 0.0, 210.0, 77);
  partial_sort_rows(data, 30, 30, pct);
  const auto k = static_cast<std::size_t>(std::llround(pct / 100.0 * 900));
  EXPECT_TRUE(std::is_sorted(data.begin(),
                             data.begin() + static_cast<std::ptrdiff_t>(k)));
  if (k > 0 && k < 900) {
    // Everything in the prefix is <= everything after it.
    const float prefix_max = *std::max_element(
        data.begin(), data.begin() + static_cast<std::ptrdiff_t>(k));
    const float rest_min = *std::min_element(
        data.begin() + static_cast<std::ptrdiff_t>(k), data.end());
    EXPECT_LE(prefix_max, rest_min);
  }
}

INSTANTIATE_TEST_SUITE_P(Percents, PlacementPercentSweep,
                         ::testing::Values(0.0, 10.0, 25.0, 33.3, 50.0, 66.7,
                                           80.0, 99.0, 100.0));

}  // namespace
}  // namespace gpupower::patterns
