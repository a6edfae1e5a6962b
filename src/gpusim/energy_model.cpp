#include "gpusim/energy_model.hpp"

#include <bit>

namespace gpupower::gpusim {

ActivityTotals& ActivityTotals::operator+=(const ActivityTotals& o) noexcept {
  fetch_words += o.fetch_words;
  fetch_toggles += o.fetch_toggles;
  fetch_weight += o.fetch_weight;
  operand_words += o.operand_words;
  operand_toggles += o.operand_toggles;
  operand_weight += o.operand_weight;
  mult_pp += o.mult_pp;
  exponent_bits += o.exponent_bits;
  acc_updates += o.acc_updates;
  acc_toggles += o.acc_toggles;
  macs += o.macs;
  return *this;
}

void ActivityTotals::scale_by(double factor) noexcept {
  const auto mul = [factor](std::uint64_t& v) {
    v = static_cast<std::uint64_t>(static_cast<double>(v) * factor + 0.5);
  };
  mul(fetch_words);
  mul(fetch_toggles);
  mul(fetch_weight);
  mul(operand_words);
  mul(operand_toggles);
  mul(operand_weight);
  mul(mult_pp);
  mul(exponent_bits);
  mul(acc_updates);
  mul(acc_toggles);
  mul(macs);
}

std::uint32_t exponent_activity(std::uint32_t a_bits, std::uint32_t b_bits,
                                int width) noexcept {
  switch (width) {
    case 16: {
      if (significand(a_bits, 16) == 0 || significand(b_bits, 16) == 0) return 0;
      return static_cast<std::uint32_t>(std::popcount((a_bits >> 10) & 0x1Fu) +
                                        std::popcount((b_bits >> 10) & 0x1Fu));
    }
    case 32: {
      if (significand(a_bits, 32) == 0 || significand(b_bits, 32) == 0) return 0;
      return static_cast<std::uint32_t>(std::popcount((a_bits >> 23) & 0xFFu) +
                                        std::popcount((b_bits >> 23) & 0xFFu));
    }
    default:
      return 0;  // INT8 has no exponent datapath
  }
}

std::uint32_t multiplier_switching(std::uint32_t sig_a, std::uint32_t prev_sig_a,
                                   std::uint32_t sig_b,
                                   std::uint32_t prev_sig_b) noexcept {
  const auto ha = static_cast<std::uint32_t>(std::popcount(sig_a ^ prev_sig_a));
  const auto hb = static_cast<std::uint32_t>(std::popcount(sig_b ^ prev_sig_b));
  const auto pa = static_cast<std::uint32_t>(std::popcount(sig_a));
  const auto pb = static_cast<std::uint32_t>(std::popcount(sig_b));
  return ha * pb + hb * pa;
}

MacActivity mac_activity(std::uint32_t a_bits, std::uint32_t b_bits,
                         int width) noexcept {
  MacActivity out;
  const auto pa =
      static_cast<std::uint32_t>(std::popcount(significand(a_bits, width)));
  const auto pb =
      static_cast<std::uint32_t>(std::popcount(significand(b_bits, width)));
  out.pp = pa * pb;
  out.exp_bits = exponent_activity(a_bits, b_bits, width);
  return out;
}

}  // namespace gpupower::gpusim
