// The per-event energy model: every observer event from the tiled GEMM
// traversal maps to switched capacitance on a physical rail.  This encodes
// the paper's Section V hypothesis — input-dependent power is bit-flip
// (toggle) activity plus driven Hamming weight — as a concrete CMOS dynamic
// power model: E = sum over rails of (energy per event unit) x (event count).
//
// Rails:
//   fetch    — memory hierarchy wires (DRAM interface / L2 / shared memory):
//              per-word access charge + per-bit-toggle line switching
//   operand  — register file reads and operand-collector buses feeding the
//              math units; tensor cores amortize these across fragments
//   multiply — multiplier array partial-product activity, modelled as
//              popcount(mantissa_a) x popcount(mantissa_b) (+ exponent adder
//              for FP); an exact zero operand gates the array
//   accum    — accumulator register writeback (per-bit toggles + access)
//   issue    — data-independent instruction issue/control overhead per math
//              instruction (per MAC for SIMT, per MMA for tensor cores)
//
// All energies are in picojoules.
#pragma once

#include <cstdint>

#include "numeric/dtype.hpp"

namespace gpupower::gpusim {

struct EnergyModel {
  // Per-bit toggle energies (wire switching).
  double fetch_toggle_pj = 0.30;
  double operand_toggle_pj = 0.12;
  double acc_toggle_pj = 0.02;
  // Per-word access charges (precharge, decode, clocked latches).  Fetch and
  // operand accesses drive width-proportional wire bundles, so the power
  // model scales them by (element width / 32); the accumulator is always a
  // 32-bit register.
  double fetch_access_pj = 0.50;
  double operand_access_pj = 0.60;
  double acc_access_pj = 0.30;
  // Per set bit driven on a bus word (Hamming-weight component: holding a
  // line high costs energy even without a transition).
  double weight_pj = 0.012;
  // Multiplier array energy per partial-product bit (popcount product
  // model).  Tensor-core arrays share operand routing across the fragment
  // and are substantially cheaper per product than SIMT FMA datapaths.
  double multiply_pp_simt_pj = 0.0316;
  double multiply_pp_tc_pj = 0.0054;
  // Exponent-adder energy per set exponent bit (FP only), per datapath.
  double exponent_simt_pj = 0.0316;
  double exponent_tc_pj = 0.0054;
  // Instruction issue overhead.
  double simt_issue_pj = 0.37;   ///< per FMA (HFMA2 pairing halves this for FP16)
  double mma_issue_pj = 1700.0;   ///< per MMA instruction (amortized over its MACs)
  /// Device-global scale applied to all dynamic energies; calibrates a
  /// device's process/voltage corner relative to the A100 baseline model.
  double scale = 1.0;
};

/// Raw activity totals accumulated while walking a GEMM (counts, not
/// energies).  Produced by ActivityCounters, consumed by PowerCalculator.
struct ActivityTotals {
  std::uint64_t fetch_words = 0;
  std::uint64_t fetch_toggles = 0;
  std::uint64_t fetch_weight = 0;
  std::uint64_t operand_words = 0;
  std::uint64_t operand_toggles = 0;
  std::uint64_t operand_weight = 0;
  std::uint64_t mult_pp = 0;        ///< accumulated popcount products
  std::uint64_t exponent_bits = 0;  ///< accumulated exponent popcounts (FP)
  std::uint64_t acc_updates = 0;
  std::uint64_t acc_toggles = 0;
  std::uint64_t macs = 0;

  /// Memberwise equality: parity harnesses compare whole structs so new
  /// counter fields are covered automatically.
  [[nodiscard]] bool operator==(const ActivityTotals&) const noexcept = default;

  ActivityTotals& operator+=(const ActivityTotals& o) noexcept;
  /// Multiplies every counter by `factor` (used to scale sampled estimates
  /// up to the full problem).  Factors are small rationals; rounding error
  /// is negligible against sampling noise.
  void scale_by(double factor) noexcept;
};

/// Significand in the multiplier array's operand domain: the two's
/// complement byte for INT8, the hidden-bit mantissa for FP16/FP32 (zero and
/// subnormal values carry no hidden bit, so a zero operand contributes no
/// partial products — the hardware's zero gating).  Inline: the batched
/// activity kernel calls it per element with a constant width, so the
/// switch folds away and the loop around it vectorises.
[[nodiscard]] constexpr std::uint32_t significand(std::uint32_t bits,
                                                  int width) noexcept {
  switch (width) {
    case 8: {
      // Sign-magnitude: Booth-style recoding makes array activity track the
      // operand magnitude, not the raw two's-complement bits (whose
      // popcount explodes for small negative values).
      const auto v = static_cast<std::int32_t>(static_cast<std::int8_t>(bits));
      return static_cast<std::uint32_t>(v < 0 ? -v : v);
    }
    case 16: {
      const std::uint32_t exp = (bits >> 10) & 0x1Fu;
      const std::uint32_t mant = bits & 0x3FFu;
      return exp == 0 ? mant : (mant | 0x400u);
    }
    case 32: {
      const std::uint32_t exp = (bits >> 23) & 0xFFu;
      const std::uint32_t mant = bits & 0x7FFFFFu;
      return exp == 0 ? mant : (mant | 0x800000u);
    }
    default:
      return 0;
  }
}

/// Popcount of the exponent fields of both operands (FP only), gated to zero
/// when either operand is zero (no multiply happens).
[[nodiscard]] std::uint32_t exponent_activity(std::uint32_t a_bits,
                                              std::uint32_t b_bits,
                                              int width) noexcept;

/// Multiplier array switching for one MAC given the previous operands the
/// array held: partial-product rows re-evaluate where an operand bit
/// changed, so activity is transition-driven —
///   HD(sig_a, prev_sig_a) * popcount(sig_b) +
///   HD(sig_b, prev_sig_b) * popcount(sig_a).
/// Identical back-to-back operands (sorted streams, repeated values) switch
/// almost nothing; a zero operand gates the array.
[[nodiscard]] std::uint32_t multiplier_switching(std::uint32_t sig_a,
                                                 std::uint32_t prev_sig_a,
                                                 std::uint32_t sig_b,
                                                 std::uint32_t prev_sig_b) noexcept;

/// Static per-MAC multiplier activity (popcount product) — used by the
/// power-model feature extractor as a cheap stream-free proxy.
struct MacActivity {
  std::uint32_t pp = 0;
  std::uint32_t exp_bits = 0;
};

[[nodiscard]] MacActivity mac_activity(std::uint32_t a_bits, std::uint32_t b_bits,
                                       int width) noexcept;

}  // namespace gpupower::gpusim
