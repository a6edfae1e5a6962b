// Software IEEE 754 binary16 ("half"), bit-exact with the storage format the
// GPU sees.  The paper converts FP32-generated inputs to FP16 with
// round-to-nearest(-even); all bit statistics (Hamming weight, alignment,
// toggles) are computed on exactly these 16 storage bits, so the software
// type must match hardware representation bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace gpupower::numeric {

class float16_t {
 public:
  constexpr float16_t() noexcept = default;

  /// Converts from float with IEEE round-to-nearest-even, handling
  /// subnormals, overflow-to-infinity, and NaN payload preservation.
  explicit float16_t(float value) noexcept : bits_(from_float(value)) {}

  /// The conversion's storage bits.  Inline, and branch-free over the
  /// normal binary16 range [2^-14, 2^16): rebias the exponent from 127 to
  /// 15, then round the 13 dropped mantissa bits to nearest even by adding
  /// 0xFFF plus the kept LSB, which carries into the kept bits exactly when
  /// the dropped bits exceed half an ULP or equal it with the LSB odd.  A
  /// carry out of the mantissa bumps the exponent, up to infinity for
  /// values >= 65520.  Every other input takes from_float_slow.
  [[nodiscard]] static std::uint16_t from_float(float value) noexcept {
    const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
    const std::uint32_t abs = f & 0x7FFFFFFFu;
    if (abs - 0x38800000u < 0x47800000u - 0x38800000u) {
      const std::uint32_t rebased = abs - 0x38000000u;  // (127-15) << 23
      const std::uint32_t half =
          (rebased + 0xFFFu + ((rebased >> 13) & 1u)) >> 13;
      return static_cast<std::uint16_t>(((f >> 16) & 0x8000u) | half);
    }
    return from_float_slow(value);
  }

  /// The general conversion, every input class branch by branch: NaN,
  /// infinity and overflow, normal, subnormal.
  [[nodiscard]] static std::uint16_t from_float_slow(float value) noexcept;

  /// Reinterprets raw storage bits as a half value.
  [[nodiscard]] static constexpr float16_t from_bits(std::uint16_t bits) noexcept {
    float16_t h;
    h.bits_ = bits;
    return h;
  }

  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }

  /// Widens to float exactly (every binary16 value is representable).
  [[nodiscard]] float to_float() const noexcept { return to_float_impl(bits_); }
  explicit operator float() const noexcept { return to_float(); }

  [[nodiscard]] constexpr bool is_nan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] constexpr bool is_inf() const noexcept {
    return (bits_ & 0x7FFFu) == 0x7C00u;
  }
  [[nodiscard]] constexpr bool is_zero() const noexcept {
    return (bits_ & 0x7FFFu) == 0;
  }
  [[nodiscard]] constexpr bool signbit() const noexcept {
    return (bits_ & 0x8000u) != 0;
  }
  [[nodiscard]] constexpr bool is_subnormal() const noexcept {
    return (bits_ & 0x7C00u) == 0 && (bits_ & 0x03FFu) != 0;
  }

  friend constexpr bool operator==(float16_t a, float16_t b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;  // +0 == -0
    return a.bits_ == b.bits_;
  }
  friend bool operator<(float16_t a, float16_t b) noexcept {
    return a.to_float() < b.to_float();
  }

  // Arithmetic routes through float; hardware FP16 units produce correctly
  // rounded binary16 results, which double round-trip through binary32
  // reproduces exactly for single operations (binary32 has enough precision).
  friend float16_t operator+(float16_t a, float16_t b) noexcept {
    return float16_t(a.to_float() + b.to_float());
  }
  friend float16_t operator-(float16_t a, float16_t b) noexcept {
    return float16_t(a.to_float() - b.to_float());
  }
  friend float16_t operator*(float16_t a, float16_t b) noexcept {
    return float16_t(a.to_float() * b.to_float());
  }

  static constexpr int kMantissaBits = 10;
  static constexpr int kExponentBits = 5;
  static constexpr int kBits = 16;

 private:
  [[nodiscard]] static float to_float_impl(std::uint16_t bits) noexcept;

  std::uint16_t bits_ = 0;
};

static_assert(sizeof(float16_t) == 2, "binary16 storage must be 2 bytes");

}  // namespace gpupower::numeric
