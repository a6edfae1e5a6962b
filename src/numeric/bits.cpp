#include "numeric/bits.hpp"

#include <type_traits>

#include "numeric/isa.hpp"

namespace gpupower::numeric {
namespace {

template <typename W>
std::uint64_t stream_toggles_impl(std::span<const W> words) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < words.size(); ++i) {
    total += static_cast<std::uint64_t>(
        std::popcount(static_cast<W>(words[i - 1] ^ words[i])));
  }
  return total;
}

template <typename W>
std::uint64_t stream_weight_impl(std::span<const W> words) noexcept {
  std::uint64_t total = 0;
  for (const W w : words) {
    total += static_cast<std::uint64_t>(std::popcount(w));
  }
  return total;
}

// The Fig. 8 feature scans: one body each, forced inline into a portable
// and a popcnt-target wrapper per element type, so the wrapper's target
// decides how __builtin_popcount compiles.  Every element widens to its
// storage bits as a uint32_t (a float by its bit pattern), so all four
// scan the same bits.

template <typename W>
[[gnu::always_inline]] inline std::uint32_t word_bits(W w) noexcept {
  if constexpr (std::is_same_v<W, float>) {
    return std::bit_cast<std::uint32_t>(w);
  } else if constexpr (std::is_same_v<W, std::uint32_t>) {
    return w;
  } else {
    return w.bits();
  }
}

template <typename W>
[[gnu::always_inline]] inline double alignment_scan(
    std::span<const W> a, std::span<const W> b, int width) noexcept {
  if (a.empty() || a.size() != b.size() || width <= 0) return 0.0;
  std::uint64_t differing = 0;
  const std::uint32_t mask = low_mask<std::uint32_t>(width);
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing += static_cast<std::uint64_t>(
        __builtin_popcount((word_bits(a[i]) ^ word_bits(b[i])) & mask));
  }
  const double per_element =
      static_cast<double>(differing) / static_cast<double>(a.size());
  return 1.0 - per_element / static_cast<double>(width);
}

template <typename W>
[[gnu::always_inline]] inline double weight_fraction_scan(
    std::span<const W> words, int width) noexcept {
  if (words.empty() || width <= 0) return 0.0;
  std::uint64_t weight = 0;
  const std::uint32_t mask = low_mask<std::uint32_t>(width);
  for (const W w : words) {
    weight +=
        static_cast<std::uint64_t>(__builtin_popcount(word_bits(w) & mask));
  }
  const double per_element =
      static_cast<double>(weight) / static_cast<double>(words.size());
  return per_element / static_cast<double>(width);
}

}  // namespace

std::uint64_t stream_toggles(std::span<const std::uint64_t> words) noexcept {
  return stream_toggles_impl(words);
}
std::uint64_t stream_toggles(std::span<const std::uint32_t> words) noexcept {
  return stream_toggles_impl(words);
}
std::uint64_t stream_toggles(std::span<const std::uint16_t> words) noexcept {
  return stream_toggles_impl(words);
}
std::uint64_t stream_toggles(std::span<const std::uint8_t> words) noexcept {
  return stream_toggles_impl(words);
}

std::uint64_t stream_weight(std::span<const std::uint64_t> words) noexcept {
  return stream_weight_impl(words);
}
std::uint64_t stream_weight(std::span<const std::uint32_t> words) noexcept {
  return stream_weight_impl(words);
}
std::uint64_t stream_weight(std::span<const std::uint16_t> words) noexcept {
  return stream_weight_impl(words);
}
std::uint64_t stream_weight(std::span<const std::uint8_t> words) noexcept {
  return stream_weight_impl(words);
}

bool cpu_has_popcnt() noexcept {
#if GPUPOWER_POPCNT_VARIANT
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") != 0;
  }();
  return has;
#else
  return false;
#endif
}

namespace detail {

// One wrapper pair per element type and variant; the region the expansion
// sits in picks the target.
#define GPUPOWER_BITS_SCANS(W, variant)                                   \
  double average_alignment_##variant(std::span<const W> a,                \
                                     std::span<const W> b,                \
                                     int width) noexcept {                \
    return alignment_scan(a, b, width);                                   \
  }                                                                       \
  double average_weight_fraction_##variant(std::span<const W> words,      \
                                           int width) noexcept {          \
    return weight_fraction_scan(words, width);                            \
  }

GPUPOWER_BITS_SCANS(std::uint32_t, portable)
GPUPOWER_BITS_SCANS(float16_t, portable)
GPUPOWER_BITS_SCANS(int8_value_t, portable)
GPUPOWER_BITS_SCANS(float, portable)

GPUPOWER_POPCNT_BEGIN

GPUPOWER_BITS_SCANS(std::uint32_t, popcnt)
GPUPOWER_BITS_SCANS(float16_t, popcnt)
GPUPOWER_BITS_SCANS(int8_value_t, popcnt)
GPUPOWER_BITS_SCANS(float, popcnt)

GPUPOWER_POPCNT_END

#undef GPUPOWER_BITS_SCANS

}  // namespace detail

namespace {

template <typename W>
double dispatch_alignment(std::span<const W> a, std::span<const W> b,
                          int width) noexcept {
  return cpu_has_popcnt() ? detail::average_alignment_popcnt(a, b, width)
                          : detail::average_alignment_portable(a, b, width);
}

template <typename W>
double dispatch_weight_fraction(std::span<const W> words, int width) noexcept {
  return cpu_has_popcnt()
             ? detail::average_weight_fraction_popcnt(words, width)
             : detail::average_weight_fraction_portable(words, width);
}

}  // namespace

double average_alignment(std::span<const std::uint32_t> a,
                         std::span<const std::uint32_t> b,
                         int width) noexcept {
  return dispatch_alignment(a, b, width);
}
double average_alignment(std::span<const float16_t> a,
                         std::span<const float16_t> b, int width) noexcept {
  return dispatch_alignment(a, b, width);
}
double average_alignment(std::span<const int8_value_t> a,
                         std::span<const int8_value_t> b,
                         int width) noexcept {
  return dispatch_alignment(a, b, width);
}
double average_alignment(std::span<const float> a, std::span<const float> b,
                         int width) noexcept {
  return dispatch_alignment(a, b, width);
}

double average_weight_fraction(std::span<const std::uint32_t> words,
                               int width) noexcept {
  return dispatch_weight_fraction(words, width);
}
double average_weight_fraction(std::span<const float16_t> words,
                               int width) noexcept {
  return dispatch_weight_fraction(words, width);
}
double average_weight_fraction(std::span<const int8_value_t> words,
                               int width) noexcept {
  return dispatch_weight_fraction(words, width);
}
double average_weight_fraction(std::span<const float> words,
                               int width) noexcept {
  return dispatch_weight_fraction(words, width);
}

}  // namespace gpupower::numeric
