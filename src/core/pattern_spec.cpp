#include "core/pattern_spec.hpp"

#include <cmath>

#include "core/obs/obs.hpp"
#include "numeric/bits.hpp"
#include "patterns/bitops.hpp"
#include "patterns/distributions.hpp"
#include "patterns/placement.hpp"
#include "patterns/rng.hpp"
#include "patterns/sparsity.hpp"

namespace gpupower::core {
namespace {

// Seed stream tags so every random decision in one replica is independent.
enum Stream : std::uint64_t {
  kStreamA = 0,
  kStreamB = 1,
  kStreamSparsityA = 2,
  kStreamSparsityB = 3,
  kStreamBitsA = 4,
  kStreamBitsB = 5,
};

std::vector<float> generate_values(const PatternSpec& spec, double sigma,
                                   std::size_t count, std::uint64_t seed) {
  switch (spec.value) {
    case PatternSpec::Value::kGaussian:
      return patterns::gaussian_fill(count, spec.mean, sigma, seed);
    case PatternSpec::Value::kValueSet:
      return patterns::value_set_fill(count, spec.set_size, spec.mean, sigma,
                                      seed);
    case PatternSpec::Value::kConstant:
      return patterns::constant_random_fill(count, spec.mean, sigma, seed);
  }
  return patterns::gaussian_fill(count, spec.mean, sigma, seed);
}

void apply_placement(const PatternSpec& spec, std::vector<float>& data,
                     std::size_t n) {
  switch (spec.place) {
    case PatternSpec::Place::kNone:
      break;
    case PatternSpec::Place::kSortRows:
      patterns::partial_sort_rows(data, n, n, spec.sort_percent);
      break;
    case PatternSpec::Place::kSortColumns:
      patterns::partial_sort_columns(data, n, n, spec.sort_percent);
      break;
    case PatternSpec::Place::kSortWithinRows:
      patterns::partial_sort_within_rows(data, n, n, spec.sort_percent);
      break;
    case PatternSpec::Place::kFullSort:
      patterns::full_sort(data);
      break;
  }
}

template <typename T>
void apply_bitop(const PatternSpec& spec, gemm::Matrix<T>& m,
                 std::uint64_t seed) {
  using traits = gpupower::numeric::scalar_traits<T>;
  const int bits = static_cast<int>(
      std::llround(spec.bit_fraction * static_cast<double>(traits::kBits)));
  switch (spec.bitop) {
    case PatternSpec::BitOp::kNone:
      break;
    case PatternSpec::BitOp::kFlipRandom:
      patterns::flip_random_bits(m.span(), bits, seed);
      break;
    case PatternSpec::BitOp::kRandomizeLow:
      patterns::randomize_low_bits(m.span(), bits, seed);
      break;
    case PatternSpec::BitOp::kRandomizeHigh:
      patterns::randomize_high_bits(m.span(), bits, seed);
      break;
    case PatternSpec::BitOp::kZeroLow:
      patterns::zero_low_bits(m.span(), bits);
      break;
    case PatternSpec::BitOp::kZeroHigh:
      patterns::zero_high_bits(m.span(), bits);
      break;
  }
}

}  // namespace

template <typename T>
ExperimentInputs<T> build_inputs(const PatternSpec& spec,
                                 gpupower::numeric::DType dtype, std::size_t n,
                                 std::uint64_t seed) {
  using gpupower::numeric::DType;
  const bool is_int8 = dtype == DType::kINT8;
  // Scale the FP-domain distribution parameters into INT8's representable
  // range, as the paper does (210 -> 25).
  const double range_scale = is_int8 ? 25.0 / 210.0 : 1.0;
  double sigma = spec.sigma < 0.0
                     ? gpupower::numeric::default_sigma(dtype)
                     : spec.sigma * range_scale;
  const double saved_mean = spec.mean;
  PatternSpec local = spec;
  local.mean = saved_mean * range_scale;

  // One span per stage under inputs.build, so a trace attributes the
  // whole input build.  With tracing off each costs one flag check.
  const obs::Span build("inputs.build");
  const std::size_t count = n * n;
  std::vector<float> a_vals;
  std::vector<float> b_vals;
  {
    const obs::Span stage("inputs.generate");
    a_vals = generate_values(local, sigma, count,
                             patterns::derive_seed(seed, kStreamA));
    b_vals = generate_values(local, sigma, count,
                             patterns::derive_seed(seed, kStreamB));
  }
  {
    const obs::Span stage("inputs.place");
    apply_placement(spec, a_vals, n);
    apply_placement(spec, b_vals, n);
  }
  {
    const obs::Span stage("inputs.sparsify");
    if (spec.sparsity > 0.0) {
      patterns::sparsify(a_vals, spec.sparsity,
                         patterns::derive_seed(seed, kStreamSparsityA));
      patterns::sparsify(b_vals, spec.sparsity,
                         patterns::derive_seed(seed, kStreamSparsityB));
    }
  }

  ExperimentInputs<T> inputs;
  {
    const obs::Span stage("inputs.materialize");
    inputs.a = gemm::materialize<T>(a_vals, n, n);
    inputs.b = gemm::materialize<T>(b_vals, n, n);
  }
  {
    const obs::Span stage("inputs.bitop");
    apply_bitop(spec, inputs.a, patterns::derive_seed(seed, kStreamBitsA));
    apply_bitop(spec, inputs.b, patterns::derive_seed(seed, kStreamBitsB));
  }
  {
    const obs::Span stage("inputs.features");
    const auto a_bits = gemm::raw_bits(inputs.a);
    const auto b_bits = gemm::raw_bits(inputs.b);
    const int width = gpupower::numeric::bit_width(dtype);
    inputs.alignment =
        gpupower::numeric::average_alignment(a_bits, b_bits, width);
    inputs.weight_fraction =
        gpupower::numeric::average_weight_fraction(a_bits, width);
  }
  return inputs;
}

template ExperimentInputs<float> build_inputs<float>(const PatternSpec&,
                                                     gpupower::numeric::DType,
                                                     std::size_t,
                                                     std::uint64_t);
template ExperimentInputs<gpupower::numeric::float16_t>
build_inputs<gpupower::numeric::float16_t>(const PatternSpec&,
                                           gpupower::numeric::DType,
                                           std::size_t, std::uint64_t);
template ExperimentInputs<gpupower::numeric::int8_value_t>
build_inputs<gpupower::numeric::int8_value_t>(const PatternSpec&,
                                              gpupower::numeric::DType,
                                              std::size_t, std::uint64_t);

}  // namespace gpupower::core
