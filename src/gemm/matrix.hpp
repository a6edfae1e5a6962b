// Dense row-major matrix container shared by the kernels, the activity
// model, and the pattern pipeline.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "numeric/scalar_traits.hpp"

namespace gpupower::gemm {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    assert(data_.size() == rows_ * cols_);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& at(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<T> span() noexcept { return data_; }
  [[nodiscard]] std::span<const T> span() const noexcept { return data_; }
  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  [[nodiscard]] Matrix transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
    }
    return out;
  }

  void fill(const T& value) { data_.assign(data_.size(), value); }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Converts an FP32-generated buffer into a typed matrix (round to nearest),
/// following the paper's protocol of generating FP32 values once and
/// converting per datatype.
template <typename T>
[[nodiscard]] Matrix<T> materialize(std::span<const float> values,
                                    std::size_t rows, std::size_t cols) {
  assert(values.size() == rows * cols);
  Matrix<T> out(rows, cols);
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.span()[i] = gpupower::numeric::scalar_traits<T>::from_float(values[i]);
  }
  return out;
}

/// Extracts each element's raw storage bits widened to uint32 (for the
/// alignment / Hamming-weight analysis of Fig. 8).
template <typename T>
[[nodiscard]] std::vector<std::uint32_t> raw_bits(const Matrix<T>& m) {
  using traits = gpupower::numeric::scalar_traits<T>;
  std::vector<std::uint32_t> out(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    out[i] = static_cast<std::uint32_t>(traits::to_bits(m.span()[i]));
  }
  return out;
}

}  // namespace gpupower::gemm
