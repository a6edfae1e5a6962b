#include "core/pattern_spec.hpp"

#include <cmath>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/obs/obs.hpp"
#include "core/values_memo.hpp"
#include "numeric/bits.hpp"
#include "patterns/bitops.hpp"
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

/// One matrix's FP32 values before conversion: a stream shared through
/// the values memo, or a private buffer that placement and sparsity may
/// mutate.
struct StagedValues {
  SharedValues shared;
  std::vector<float> own;

  [[nodiscard]] std::span<const float> view() const noexcept {
    return shared ? std::span<const float>(*shared)
                  : std::span<const float>(own);
  }
};

/// Constant fills bypass the memo: their generate is one draw and a fill.
StagedValues stage_values(const ValueStream& stream, bool mutates,
                          const ValuesMemo* memo) {
  StagedValues staged;
  if (memo == nullptr || stream.value == PatternSpec::Value::kConstant) {
    staged.own = stream.generate();
  } else if (mutates) {
    const SharedValues values = memo->get(stream);
    staged.own.assign(values->begin(), values->end());
  } else {
    staged.shared = memo->get(stream);
  }
  return staged;
}

/// Converts staged values to T.  A private FP32 buffer becomes the
/// matrix's storage as is; everything else is converted element by
/// element.
template <typename T>
gemm::Matrix<T> materialize_staged(StagedValues& staged, std::size_t n) {
  if constexpr (std::is_same_v<T, float>) {
    if (!staged.shared) return gemm::Matrix<float>(n, n, std::move(staged.own));
  }
  return gemm::materialize<T>(staged.view(), n, n);
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
                                 std::uint64_t seed, const ValuesMemo* memo) {
  using gpupower::numeric::DType;
  const bool is_int8 = dtype == DType::kINT8;
  // Scale the FP-domain distribution parameters into INT8's representable
  // range, as the paper does (210 -> 25).
  const double range_scale = is_int8 ? 25.0 / 210.0 : 1.0;
  ValueStream stream;
  stream.value = spec.value;
  stream.mean = spec.mean * range_scale;
  stream.sigma = spec.sigma < 0.0 ? gpupower::numeric::default_sigma(dtype)
                                  : spec.sigma * range_scale;
  stream.set_size = spec.set_size;
  stream.count = n * n;
  const bool mutates =
      spec.place != PatternSpec::Place::kNone || spec.sparsity > 0.0;

  // One span per stage under inputs.build, so a trace attributes the
  // whole input build.  With tracing off each costs one flag check.
  const obs::Span build("inputs.build");
  StagedValues a_vals;
  StagedValues b_vals;
  {
    const obs::Span stage("inputs.generate");
    stream.seed = patterns::derive_seed(seed, kStreamA);
    a_vals = stage_values(stream, mutates, memo);
    stream.seed = patterns::derive_seed(seed, kStreamB);
    b_vals = stage_values(stream, mutates, memo);
  }
  {
    const obs::Span stage("inputs.place");
    apply_placement(spec, a_vals.own, n);
    apply_placement(spec, b_vals.own, n);
  }
  {
    const obs::Span stage("inputs.sparsify");
    if (spec.sparsity > 0.0) {
      patterns::sparsify(a_vals.own, spec.sparsity,
                         patterns::derive_seed(seed, kStreamSparsityA));
      patterns::sparsify(b_vals.own, spec.sparsity,
                         patterns::derive_seed(seed, kStreamSparsityB));
    }
  }

  ExperimentInputs<T> inputs;
  {
    const obs::Span stage("inputs.materialize");
    inputs.a = materialize_staged<T>(a_vals, n);
    inputs.b = materialize_staged<T>(b_vals, n);
  }
  {
    const obs::Span stage("inputs.bitop");
    apply_bitop(spec, inputs.a, patterns::derive_seed(seed, kStreamBitsA));
    apply_bitop(spec, inputs.b, patterns::derive_seed(seed, kStreamBitsB));
  }
  {
    const obs::Span stage("inputs.features");
    // Scanned in place: each element's storage is its raw bits.
    const int width = gpupower::numeric::bit_width(dtype);
    inputs.alignment = gpupower::numeric::average_alignment(
        inputs.a.span(), inputs.b.span(), width);
    inputs.weight_fraction =
        gpupower::numeric::average_weight_fraction(inputs.a.span(), width);
  }
  return inputs;
}

template ExperimentInputs<float> build_inputs<float>(const PatternSpec&,
                                                     gpupower::numeric::DType,
                                                     std::size_t,
                                                     std::uint64_t,
                                                     const ValuesMemo*);
template ExperimentInputs<gpupower::numeric::float16_t>
build_inputs<gpupower::numeric::float16_t>(const PatternSpec&,
                                           gpupower::numeric::DType,
                                           std::size_t, std::uint64_t,
                                           const ValuesMemo*);
template ExperimentInputs<gpupower::numeric::int8_value_t>
build_inputs<gpupower::numeric::int8_value_t>(const PatternSpec&,
                                              gpupower::numeric::DType,
                                              std::size_t, std::uint64_t,
                                              const ValuesMemo*);

}  // namespace gpupower::core
