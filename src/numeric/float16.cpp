#include "numeric/float16.hpp"

#include <bit>
#include <cmath>

namespace gpupower::numeric {

std::uint16_t float16_t::from_float_slow(float value) noexcept {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t abs = f & 0x7FFFFFFFu;

  // NaN: keep the quiet bit plus top mantissa payload bits.
  if (abs > 0x7F800000u) {
    return static_cast<std::uint16_t>(sign | 0x7E00u | ((abs >> 13) & 0x01FFu));
  }
  // Infinity, or magnitude >= 65536 which rounds past the largest finite
  // half.  Values in [65520, 65536) reach infinity through mantissa carry in
  // the normal path below.
  if (abs >= 0x47800000u) {  // 2^16 in binary32
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  // Normal binary16 range (>= 2^-14): rebias the exponent from 127 to 15 and
  // round the mantissa to 10 bits, nearest-even on the 13 dropped bits.
  if (abs >= 0x38800000u) {  // 2^-14
    const std::uint32_t rebased = abs - 0x38000000u;  // (127-15) << 23
    const std::uint32_t dropped = rebased & 0x1FFFu;
    std::uint32_t half = rebased >> 13;
    if (dropped > 0x1000u || (dropped == 0x1000u && (half & 1u))) ++half;
    return static_cast<std::uint16_t>(sign | half);
  }
  // Subnormal range (< 2^-14): the half subnormal ULP is 2^-24, so the
  // stored integer is round-to-nearest-even(|value| * 2^24).  The product is
  // exact in binary32 (a pure exponent shift), and nearbyintf honours the
  // default FE_TONEAREST mode.  A result of 1024 encodes 2^-14, the smallest
  // normal, which is exactly the correct carry-out representation.
  const float mag = std::bit_cast<float>(abs);
  const auto half = static_cast<std::uint32_t>(std::nearbyintf(mag * 0x1p24f));
  return static_cast<std::uint16_t>(sign | half);
}

float float16_t::to_float_impl(std::uint16_t bits) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(bits) & 0x8000u) << 16;
  const std::uint32_t exp = (bits >> 10) & 0x1Fu;
  const std::uint32_t mant = bits & 0x3FFu;

  std::uint32_t out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;  // signed zero
    } else {
      // Subnormal: renormalise the mantissa and adjust the exponent.
      int e = 0;
      std::uint32_t m = mant;
      while ((m & 0x400u) == 0) {
        ++e;
        m <<= 1;
      }
      out = sign | static_cast<std::uint32_t>(127 - 15 - e + 1) << 23 |
            ((m & 0x3FFu) << 13);
    }
  } else if (exp == 0x1F) {
    out = sign | 0x7F800000u | (mant << 13);  // inf / NaN
  } else {
    out = sign | ((exp + 127 - 15) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(out);
}

}  // namespace gpupower::numeric
