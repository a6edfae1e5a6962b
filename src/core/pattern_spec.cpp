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
  /// The private buffer, copied from the shared stream if there is one.
  std::vector<float>& make_own() {
    if (shared) {
      own.assign(shared->begin(), shared->end());
      shared.reset();
    }
    return own;
  }
};

/// Constant fills bypass the memo: their generate is one draw and a fill.
StagedValues stage_values(const ValueStream& stream, const ValuesMemo* memo) {
  StagedValues staged;
  if (memo == nullptr || stream.value == PatternSpec::Value::kConstant) {
    staged.own = stream.generate();
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

patterns::Traversal traversal_of(PatternSpec::Place place) noexcept {
  switch (place) {
    case PatternSpec::Place::kSortColumns:
      return patterns::Traversal::kColumns;
    case PatternSpec::Place::kSortWithinRows:
      return patterns::Traversal::kWithinRows;
    case PatternSpec::Place::kNone:
    case PatternSpec::Place::kSortRows:
    case PatternSpec::Place::kFullSort:
      break;
  }
  return patterns::Traversal::kRows;
}

/// Places the staged values into a new private buffer
/// (patterns/placement.hpp).  A shared stream's ranking comes through the
/// memo, so every sort level of one stream ranks it once; sorting 0% is
/// the identity and ranks nothing.
void apply_placement(const PatternSpec& spec, const ValueStream& stream,
                     StagedValues& staged, std::size_t n,
                     const ValuesMemo* memo) {
  if (spec.place == PatternSpec::Place::kNone) return;
  const patterns::Traversal traversal = traversal_of(spec.place);
  const double percent =
      spec.place == PatternSpec::Place::kFullSort ? 100.0 : spec.sort_percent;
  const std::size_t k = patterns::sorted_count(traversal, n, n, percent);
  if (k == 0) return;
  const std::span<const float> values = staged.view();
  SharedRanking shared_ranking;
  patterns::Ranking own_ranking;
  if (staged.shared) {
    shared_ranking = memo->ranking(stream, values, n, n, traversal);
  } else {
    own_ranking = patterns::rank(values, n, n, traversal);
  }
  std::vector<float> placed(n * n);
  patterns::apply_ranking(values, shared_ranking ? *shared_ranking : own_ranking,
                          n, n, traversal, k, placed);
  staged.own = std::move(placed);
  staged.shared.reset();
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

  // One span per stage under inputs.build, so a trace attributes the
  // whole input build.  With tracing off each costs one flag check.
  const obs::Span build("inputs.build");
  ValueStream a_stream = stream;
  a_stream.seed = patterns::derive_seed(seed, kStreamA);
  ValueStream b_stream = stream;
  b_stream.seed = patterns::derive_seed(seed, kStreamB);
  StagedValues a_vals;
  StagedValues b_vals;
  {
    const obs::Span stage("inputs.generate");
    a_vals = stage_values(a_stream, memo);
    b_vals = stage_values(b_stream, memo);
  }
  {
    const obs::Span stage("inputs.place");
    apply_placement(spec, a_stream, a_vals, n, memo);
    apply_placement(spec, b_stream, b_vals, n, memo);
  }
  {
    const obs::Span stage("inputs.sparsify");
    if (spec.sparsity > 0.0) {
      patterns::sparsify(a_vals.make_own(), spec.sparsity,
                         patterns::derive_seed(seed, kStreamSparsityA));
      patterns::sparsify(b_vals.make_own(), spec.sparsity,
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
