// Data-placement transforms for the experiments in Section IV-C.
//
// The paper's definition: "Sorting n percent means that the lowest n percent
// of values are sorted into the first n percent of indices (row-wise)".  The
// remaining values keep their original relative order in the remaining
// slots.  Column sorting applies the same rule along a column-major
// traversal; intra-row sorting applies it to every row independently.
// Ties, -0 against +0 included, keep their original order, as under a
// stable sort.  A sorted traversal holds at most 2^32 elements (kMaxN^2);
// a longer one throws std::length_error.
//
// Every placement is one rule in two steps.  rank() orders a traversal's
// positions by value (a stable radix sort, so it depends on the values
// alone, not on the sort percent), and apply_ranking() places the k lowest
// values and compacts the rest.  The in-place functions below run both
// steps; the engine's values memo (core/values_memo.hpp) keeps one ranking
// per shared value stream and applies it at every sort level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gpupower::patterns {

/// How a placement walks a rows x cols row-major matrix: its logical
/// buffers and the order of their slots.
enum class Traversal {
  kRows,        ///< one buffer, row-major (Figs. 5a/5b, the full sort)
  kColumns,     ///< one buffer, column-major (Fig. 5c)
  kWithinRows,  ///< one buffer per row (Fig. 5d)
};

/// A traversal's value ranking: for each logical buffer in turn, the
/// storage offsets (from the buffer's first element) of its values in
/// ascending order, ties in traversal order.  rows * cols entries.
using Ranking = std::vector<std::uint32_t>;

/// The ranking of the first rows * cols values of `data` under
/// `traversal`.
[[nodiscard]] Ranking rank(std::span<const float> data, std::size_t rows,
                           std::size_t cols, Traversal traversal);

/// The number of values each logical buffer of `traversal` sorts to its
/// front at `percent` (clamped to [0, 100]).
[[nodiscard]] std::size_t sorted_count(Traversal traversal, std::size_t rows,
                                       std::size_t cols, double percent);

/// Writes `src` placed into `dst` (the same rows * cols, not overlapping
/// it): in every logical buffer the k lowest values, ascending, fill the
/// first k slots and every other value follows in its traversal order.
/// `ranking` is rank(src, rows, cols, traversal).
void apply_ranking(std::span<const float> src, std::span<const std::uint32_t> ranking,
                   std::size_t rows, std::size_t cols, Traversal traversal,
                   std::size_t k, std::span<float> dst);

/// Partially sorts a flat buffer: the lowest `percent`% of values are placed
/// in ascending order at the front; everything else keeps relative order.
/// percent=100 yields a fully sorted buffer; percent=0 is the identity.
void partial_sort_flat(std::vector<float>& data, double percent);

/// Fig. 5a / 5b: partial sort over the row-major traversal of an
/// rows x cols matrix (identical to partial_sort_flat for row-major storage).
void partial_sort_rows(std::vector<float>& data, std::size_t rows,
                       std::size_t cols, double percent);

/// Fig. 5c: partial sort over the column-major traversal of a row-major
/// stored matrix — the lowest values fill the leftmost columns.
void partial_sort_columns(std::vector<float>& data, std::size_t rows,
                          std::size_t cols, double percent);

/// Fig. 5d: partial sort applied independently inside every row.
void partial_sort_within_rows(std::vector<float>& data, std::size_t rows,
                              std::size_t cols, double percent);

/// Fully sorts (ascending, row-major) — the Fig. 6b precondition.  The
/// same stable rule at 100%: -0 and +0 keep their input order.
void full_sort(std::vector<float>& data);

/// Permutation-invariant row shuffle used by the power-aware weight
/// transform tests: reorders whole rows by their mean value.
void sort_rows_by_mean(std::vector<float>& data, std::size_t rows,
                       std::size_t cols, bool ascending = true);

}  // namespace gpupower::patterns
