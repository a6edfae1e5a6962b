// PatternSpec: a declarative description of one experiment's input data —
// value distribution, placement, sparsity, and bit-level transform — plus
// the builder that turns a spec into typed A/B matrices following the
// paper's protocol (Section III): FP32 generation, per-datatype conversion,
// A and B sharing the pattern under different seeds, B transposed unless
// the experiment says otherwise.
#pragma once

#include <cstdint>
#include <string>

#include "gemm/matrix.hpp"
#include "gemm/problem.hpp"
#include "numeric/dtype.hpp"

namespace gpupower::core {

struct PatternSpec {
  enum class Value { kGaussian, kValueSet, kConstant };
  Value value = Value::kGaussian;
  /// Gaussian mean in the FP domain; INT8 runs scale it by 25/210 to stay
  /// within the representable range (paper Section III).
  double mean = 0.0;
  /// Gaussian sigma in the FP domain; negative selects the paper default
  /// (210 FP / 25 INT8).
  double sigma = -1.0;
  /// For Value::kValueSet: number of unique values drawn (Fig. 3c).
  std::size_t set_size = 8;

  enum class Place {
    kNone,
    kSortRows,        ///< Fig. 5a/5b
    kSortColumns,     ///< Fig. 5c
    kSortWithinRows,  ///< Fig. 5d
    kFullSort,        ///< Fig. 6b precondition
  };
  Place place = Place::kNone;
  double sort_percent = 0.0;  ///< partial-sort percentage (Fig. 5 x-axis)

  /// Random value sparsity in [0, 1] (Figs. 6a/6b), applied after placement.
  double sparsity = 0.0;

  enum class BitOp {
    kNone,
    kFlipRandom,     ///< Fig. 4a
    kRandomizeLow,   ///< Fig. 4b
    kRandomizeHigh,  ///< Fig. 4c
    kZeroLow,        ///< Fig. 6c
    kZeroHigh,       ///< Fig. 6d
  };
  BitOp bitop = BitOp::kNone;
  /// Fraction of the target datatype's width the bit op touches, so one
  /// spec spans FP32/FP16/INT8 widths uniformly.
  double bit_fraction = 0.0;

  /// B consumed transposed (paper default).  Fig. 5a/5c run untransposed.
  bool transpose_b = true;
};

/// Typed experiment inputs plus the Fig. 8 input statistics.
template <typename T>
struct ExperimentInputs {
  gemm::Matrix<T> a;
  gemm::Matrix<T> b;          ///< storage; consumed per spec.transpose_b
  double alignment = 0.0;     ///< avg elementwise bit alignment A vs B
  double weight_fraction = 0.0;  ///< avg Hamming weight of A / width
};

class ValuesMemo;

/// Materialises one seed replica of a spec for an n x n GEMM.  A and B use
/// streams derived from `seed` so they never share randomness.  With a
/// non-null `memo` the Gaussian and value-set streams come through it
/// (core/values_memo.hpp), bit-identically: a pattern that neither places
/// nor sparsifies converts the shared values in place, a placement writes
/// the shared values into a private buffer by the stream's memoised
/// ranking, and sparsity copies them.
template <typename T>
[[nodiscard]] ExperimentInputs<T> build_inputs(
    const PatternSpec& spec, gpupower::numeric::DType dtype, std::size_t n,
    std::uint64_t seed, const ValuesMemo* memo = nullptr);

extern template ExperimentInputs<float> build_inputs<float>(
    const PatternSpec&, gpupower::numeric::DType, std::size_t, std::uint64_t,
    const ValuesMemo*);
extern template ExperimentInputs<gpupower::numeric::float16_t>
build_inputs<gpupower::numeric::float16_t>(const PatternSpec&,
                                           gpupower::numeric::DType,
                                           std::size_t, std::uint64_t,
                                           const ValuesMemo*);
extern template ExperimentInputs<gpupower::numeric::int8_value_t>
build_inputs<gpupower::numeric::int8_value_t>(const PatternSpec&,
                                              gpupower::numeric::DType,
                                              std::size_t, std::uint64_t,
                                              const ValuesMemo*);

}  // namespace gpupower::core
