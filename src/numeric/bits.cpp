#include "numeric/bits.hpp"

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
// and a popcnt-target wrapper, so the wrapper's target decides how
// __builtin_popcount compiles.

[[gnu::always_inline]] inline double alignment_scan(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    int width) noexcept {
  if (a.empty() || a.size() != b.size() || width <= 0) return 0.0;
  std::uint64_t differing = 0;
  const std::uint32_t mask = low_mask<std::uint32_t>(width);
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing +=
        static_cast<std::uint64_t>(__builtin_popcount((a[i] ^ b[i]) & mask));
  }
  const double per_element =
      static_cast<double>(differing) / static_cast<double>(a.size());
  return 1.0 - per_element / static_cast<double>(width);
}

[[gnu::always_inline]] inline double weight_fraction_scan(
    std::span<const std::uint32_t> words, int width) noexcept {
  if (words.empty() || width <= 0) return 0.0;
  std::uint64_t weight = 0;
  const std::uint32_t mask = low_mask<std::uint32_t>(width);
  for (const std::uint32_t w : words) {
    weight += static_cast<std::uint64_t>(__builtin_popcount(w & mask));
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

double average_alignment_portable(std::span<const std::uint32_t> a,
                                  std::span<const std::uint32_t> b,
                                  int width) noexcept {
  return alignment_scan(a, b, width);
}

double average_weight_fraction_portable(std::span<const std::uint32_t> words,
                                        int width) noexcept {
  return weight_fraction_scan(words, width);
}

GPUPOWER_POPCNT_BEGIN

double average_alignment_popcnt(std::span<const std::uint32_t> a,
                                std::span<const std::uint32_t> b,
                                int width) noexcept {
  return alignment_scan(a, b, width);
}

double average_weight_fraction_popcnt(std::span<const std::uint32_t> words,
                                      int width) noexcept {
  return weight_fraction_scan(words, width);
}

GPUPOWER_POPCNT_END

}  // namespace detail

double average_alignment(std::span<const std::uint32_t> a,
                         std::span<const std::uint32_t> b,
                         int width) noexcept {
  return cpu_has_popcnt() ? detail::average_alignment_popcnt(a, b, width)
                          : detail::average_alignment_portable(a, b, width);
}

double average_weight_fraction(std::span<const std::uint32_t> words,
                               int width) noexcept {
  return cpu_has_popcnt()
             ? detail::average_weight_fraction_popcnt(words, width)
             : detail::average_weight_fraction_portable(words, width);
}

}  // namespace gpupower::numeric
