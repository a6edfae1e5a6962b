// Activity estimation: counts bit toggles, Hamming weight, multiplier
// partial-product activity, and accumulator switching over the tiled GEMM
// traversal — the raw inputs to the power model.
//
// Two backends compute the same ActivityTotals, bit-identically on
// NaN-free inputs (on NaN inputs they pick different NaN operands and
// disagree; ROADMAP: a canonical NaN rule):
//
//  - kBatched (default): the bit-plane kernel.  Each tile's A-row / B-column
//    operand words are gathered into contiguous per-stream buffers once per
//    K-range (every K-slice of the tile reuses the same packed panels);
//    toggle counts (XOR with the one-word-shifted stream), Hamming
//    weights, multiplier partial-product activity, and accumulator switching
//    are then computed with bulk popcount loops over the packed streams.
//    Per-stream port state threads through the packed segments in exactly
//    the order the observer walk would have seen, so the totals match the
//    reference walk bit for bit (pinned by the parity tests).  The kernel
//    is compiled twice, for the portable baseline and under the x86 popcnt
//    target, and picked per CPU at run time (numeric/isa.hpp).
//  - kObserver: the reference per-element walk — gemm::process_tile with an
//    ActivityCounters observer, one callback per physical wire event.
//
// Exact mode walks every threadblock tile (tests, small problems).  Sampled
// mode walks a stratified subset of warp-tile-sized quanta and an evenly
// strided subset of K-slices, then scales counts to the full problem; a
// property test pins the sampled estimate against the exact walk.
#pragma once

#include <cstdint>

#include "gemm/matrix.hpp"
#include "gemm/problem.hpp"
#include "gemm/tile_config.hpp"
#include "gemm/tiled.hpp"
#include "gpusim/energy_model.hpp"

namespace gpupower::gpusim {

/// Last word driven on each observed bus.  One instance persists across
/// tiles, exactly like the physical wires do: toggle counts at every tile
/// (and K-slice) boundary chain off the previous word, not off zero.
struct PortState {
  std::uint32_t last_fetch_a = 0;
  std::uint32_t last_fetch_b = 0;
  std::uint32_t last_operand_a = 0;
  std::uint32_t last_operand_b = 0;
  std::uint32_t prev_sig_a = 0;
  std::uint32_t prev_sig_b = 0;
};

/// Observer for gemm::process_tile that accumulates ActivityTotals — the
/// reference backend, and the observer the compute path keeps using.
class ActivityCounters {
 public:
  static constexpr bool kEnabled = true;

  void fetch_a(std::uint32_t bits, int width) noexcept {
    on_stream(bits, width, port_.last_fetch_a, totals_.fetch_words,
              totals_.fetch_toggles, totals_.fetch_weight);
  }
  void fetch_b(std::uint32_t bits, int width) noexcept {
    on_stream(bits, width, port_.last_fetch_b, totals_.fetch_words,
              totals_.fetch_toggles, totals_.fetch_weight);
  }
  void operand_a(std::uint32_t bits, int width) noexcept {
    on_stream(bits, width, port_.last_operand_a, totals_.operand_words,
              totals_.operand_toggles, totals_.operand_weight);
  }
  void operand_b(std::uint32_t bits, int width) noexcept {
    on_stream(bits, width, port_.last_operand_b, totals_.operand_words,
              totals_.operand_toggles, totals_.operand_weight);
  }
  void mac_pair(std::uint32_t a_bits, std::uint32_t b_bits, int width) noexcept {
    const std::uint32_t sig_a = significand(a_bits, width);
    const std::uint32_t sig_b = significand(b_bits, width);
    totals_.mult_pp +=
        multiplier_switching(sig_a, port_.prev_sig_a, sig_b, port_.prev_sig_b);
    totals_.exponent_bits += exponent_activity(a_bits, b_bits, width);
    port_.prev_sig_a = sig_a;
    port_.prev_sig_b = sig_b;
    ++totals_.macs;
  }
  void acc_update(std::uint64_t before, std::uint64_t after) noexcept {
    totals_.acc_toggles += static_cast<std::uint64_t>(
        std::popcount(before ^ after));
    ++totals_.acc_updates;
  }

  [[nodiscard]] const ActivityTotals& totals() const noexcept { return totals_; }
  [[nodiscard]] const PortState& port_state() const noexcept { return port_; }
  void reset() noexcept { *this = ActivityCounters{}; }

 private:
  static void on_stream(std::uint32_t bits, int width, std::uint32_t& last,
                        std::uint64_t& words, std::uint64_t& toggles,
                        std::uint64_t& weight) noexcept {
    toggles += static_cast<std::uint64_t>(std::popcount(last ^ bits));
    weight += static_cast<std::uint64_t>(std::popcount(bits));
    ++words;
    last = bits;
    (void)width;
  }

  ActivityTotals totals_;
  PortState port_;
};

/// Controls how much of the GEMM the estimator walks.
struct SamplingPlan {
  /// Number of warp-tile quanta to walk; 0 walks every threadblock tile
  /// exactly.
  std::size_t max_tiles = 0;
  /// Fraction of K-slices walked in each sampled tile (evenly strided).
  double k_fraction = 1.0;
  std::uint64_t seed = 0x5EEDu;

  [[nodiscard]] static SamplingPlan exact() { return SamplingPlan{}; }
  [[nodiscard]] static SamplingPlan fast(std::size_t tiles = 16,
                                         double k_frac = 1.0) {
    return SamplingPlan{tiles, k_frac, 0x5EEDu};
  }
};

/// Which implementation walks the traversal.  Both produce bit-identical
/// ActivityTotals; kObserver exists as the reference for parity tests and
/// the micro benchmark.
enum class ActivityBackend {
  kBatched,   ///< packed bit-plane kernel (fast path, default)
  kObserver,  ///< per-element observer walk (reference)
};

struct ActivityEstimate {
  ActivityTotals totals;  ///< scaled to the full problem
  bool sampled = false;
  std::size_t tiles_walked = 0;
  std::size_t tiles_total = 0;
  double k_coverage = 1.0;
};

/// Estimates full-problem activity for one GEMM iteration.
template <typename T>
[[nodiscard]] ActivityEstimate estimate_activity(
    const gemm::GemmProblem& problem, const gemm::Matrix<T>& a,
    const gemm::Matrix<T>& b_storage, const gemm::TileConfig& config,
    const SamplingPlan& plan = SamplingPlan::exact(),
    ActivityBackend backend = ActivityBackend::kBatched);

namespace detail {

/// The kBatched walk as compiled for the portable baseline and under the
/// popcnt target (off x86, the same portable walk).  estimate_activity
/// picks one per CPU; the parity tests call both.  Call the popcnt
/// variant only when numeric::cpu_has_popcnt().  Instantiated for float,
/// float16_t and int8_value_t.
template <typename T>
[[nodiscard]] ActivityEstimate estimate_batched_portable(
    const gemm::GemmProblem& problem, const gemm::Matrix<T>& a,
    const gemm::Matrix<T>& b_storage, const gemm::TileConfig& config,
    const SamplingPlan& plan);
template <typename T>
[[nodiscard]] ActivityEstimate estimate_batched_popcnt(
    const gemm::GemmProblem& problem, const gemm::Matrix<T>& a,
    const gemm::Matrix<T>& b_storage, const gemm::TileConfig& config,
    const SamplingPlan& plan);

}  // namespace detail

extern template ActivityEstimate estimate_activity<float>(
    const gemm::GemmProblem&, const gemm::Matrix<float>&,
    const gemm::Matrix<float>&, const gemm::TileConfig&, const SamplingPlan&,
    ActivityBackend);
extern template ActivityEstimate estimate_activity<gpupower::numeric::float16_t>(
    const gemm::GemmProblem&, const gemm::Matrix<gpupower::numeric::float16_t>&,
    const gemm::Matrix<gpupower::numeric::float16_t>&, const gemm::TileConfig&,
    const SamplingPlan&, ActivityBackend);
extern template ActivityEstimate estimate_activity<gpupower::numeric::int8_value_t>(
    const gemm::GemmProblem&,
    const gemm::Matrix<gpupower::numeric::int8_value_t>&,
    const gemm::Matrix<gpupower::numeric::int8_value_t>&,
    const gemm::TileConfig&, const SamplingPlan&, ActivityBackend);

}  // namespace gpupower::gpusim
