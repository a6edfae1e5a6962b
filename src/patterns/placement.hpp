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
#pragma once

#include <cstddef>
#include <vector>

namespace gpupower::patterns {

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

/// Fully sorts (ascending, row-major) — the Fig. 6b precondition.
void full_sort(std::vector<float>& data);

/// Permutation-invariant row shuffle used by the power-aware weight
/// transform tests: reorders whole rows by their mean value.
void sort_rows_by_mean(std::vector<float>& data, std::size_t rows,
                       std::size_t cols, bool ascending = true);

}  // namespace gpupower::patterns
