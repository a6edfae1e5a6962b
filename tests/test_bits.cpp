#include "numeric/bits.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/experiment.hpp"
#include "core/pattern_spec.hpp"
#include "gemm/matrix.hpp"
#include "numeric/isa.hpp"

namespace gpupower::numeric {
namespace {

/// The widened raw-bit words the uint32_t scans take.
using Words = std::span<const std::uint32_t>;

TEST(Bits, LowMask) {
  EXPECT_EQ(low_mask<std::uint32_t>(0), 0u);
  EXPECT_EQ(low_mask<std::uint32_t>(1), 1u);
  EXPECT_EQ(low_mask<std::uint32_t>(8), 0xFFu);
  EXPECT_EQ(low_mask<std::uint32_t>(32), 0xFFFFFFFFu);
  EXPECT_EQ(low_mask<std::uint16_t>(16), 0xFFFFu);
  EXPECT_EQ(low_mask<std::uint8_t>(8), 0xFFu);
}

TEST(Bits, HammingDistance) {
  EXPECT_EQ(hamming_distance<std::uint32_t>(0, 0), 0);
  EXPECT_EQ(hamming_distance<std::uint32_t>(0xFFFFFFFFu, 0), 32);
  EXPECT_EQ(hamming_distance<std::uint32_t>(0b1010, 0b0101), 4);
  EXPECT_EQ(hamming_distance<std::uint8_t>(0xF0, 0x0F), 8);
}

TEST(Bits, HammingWeightRestrictsWidth) {
  EXPECT_EQ(hamming_weight<std::uint32_t>(0xFFFFFFFFu, 8), 8);
  EXPECT_EQ(hamming_weight<std::uint32_t>(0xFFFFFFFFu, 32), 32);
  EXPECT_EQ(hamming_weight<std::uint32_t>(0x100u, 8), 0);
}

TEST(Bits, BitAlignmentEndpoints) {
  // All bits equal -> 1; all bits opposite -> 0 (the paper's definition).
  EXPECT_DOUBLE_EQ((bit_alignment<std::uint32_t>(0xABCDu, 0xABCDu, 16)), 1.0);
  EXPECT_DOUBLE_EQ((bit_alignment<std::uint32_t>(0xFFFFu, 0x0000u, 16)), 0.0);
  EXPECT_DOUBLE_EQ((bit_alignment<std::uint32_t>(0x00FFu, 0x0000u, 16)), 0.5);
}

TEST(Bits, BitAlignmentIgnoresHighBits) {
  // Bits above `width` must not affect the result.
  EXPECT_DOUBLE_EQ((bit_alignment<std::uint32_t>(0xFF00FFu, 0x0000FFu, 8)), 1.0);
}

TEST(Bits, StreamTogglesCountsTransitions) {
  const std::vector<std::uint16_t> words{0x0000, 0xFFFF, 0xFFFF, 0x0F0F};
  // 16 (all flip) + 0 (same) + 8.
  EXPECT_EQ(stream_toggles(std::span<const std::uint16_t>(words)), 24u);
}

TEST(Bits, StreamTogglesEmptyAndSingle) {
  const std::vector<std::uint32_t> empty;
  EXPECT_EQ(stream_toggles(std::span<const std::uint32_t>(empty)), 0u);
  const std::vector<std::uint32_t> one{0xFFFFFFFFu};
  EXPECT_EQ(stream_toggles(std::span<const std::uint32_t>(one)), 0u);
}

TEST(Bits, StreamWeight) {
  const std::vector<std::uint8_t> words{0xFF, 0x0F, 0x01, 0x00};
  EXPECT_EQ(stream_weight(std::span<const std::uint8_t>(words)), 13u);
}

TEST(Bits, AverageAlignmentMatchesElementwise) {
  const std::vector<std::uint32_t> a{0xFFFFu, 0x0000u};
  const std::vector<std::uint32_t> b{0xFFFFu, 0xFFFFu};
  // First pair fully aligned (1.0), second fully misaligned (0.0).
  EXPECT_DOUBLE_EQ(average_alignment(a, b, 16), 0.5);
}

TEST(Bits, AverageAlignmentDegenerateInputs) {
  const std::vector<std::uint32_t> a{1, 2};
  const std::vector<std::uint32_t> b{1};
  EXPECT_DOUBLE_EQ(average_alignment(a, b, 16), 0.0);  // size mismatch
  EXPECT_DOUBLE_EQ(average_alignment(Words{}, Words{}, 16), 0.0);
}

TEST(Bits, AverageWeightFraction) {
  const std::vector<std::uint32_t> words{0xFFFFu, 0x0000u};
  EXPECT_DOUBLE_EQ(average_weight_fraction(words, 16), 0.5);
  EXPECT_DOUBLE_EQ(average_weight_fraction(Words{}, 16), 0.0);
}

// Property: toggles along a stream equal the sum of pairwise distances.
TEST(Bits, StreamTogglesMatchesPairwiseSum) {
  std::vector<std::uint32_t> words;
  std::uint32_t x = 0x12345678u;
  for (int i = 0; i < 100; ++i) {
    x = x * 1664525u + 1013904223u;
    words.push_back(x);
  }
  std::uint64_t expected = 0;
  for (std::size_t i = 1; i < words.size(); ++i) {
    expected += static_cast<std::uint64_t>(
        hamming_distance(words[i - 1], words[i]));
  }
  EXPECT_EQ(stream_toggles(std::span<const std::uint32_t>(words)), expected);
}

// The two compiled feature-scan variants (portable and popcnt target) give
// bit-identical results; the public scans pick one per CPU.
std::vector<std::uint32_t> lcg_words(std::size_t count, std::uint32_t x) {
  std::vector<std::uint32_t> words;
  for (std::size_t i = 0; i < count; ++i) {
    x = x * 1664525u + 1013904223u;
    words.push_back(x);
  }
  return words;
}

template <typename Alignment, typename Weight>
void expect_scans_match_elementwise(Alignment alignment, Weight weight) {
  const auto a = lcg_words(1000, 0x12345678u);
  const auto b = lcg_words(1000, 0x9E3779B9u);
  for (const int width : {8, 16, 32}) {
    double differing = 0.0;
    double set = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      differing += 1.0 - bit_alignment(a[i], b[i], width);
      set += hamming_weight(a[i], width);
    }
    const auto n = static_cast<double>(a.size());
    const double got = alignment(a, b, width);
    const double got_w = weight(a, width);
    EXPECT_DOUBLE_EQ(got, 1.0 - differing / n) << width;
    EXPECT_DOUBLE_EQ(got_w, set / n / width) << width;
    // Bit-identical to the public (dispatched) scans.
    const double pub = average_alignment(a, b, width);
    const double pub_w = average_weight_fraction(a, width);
    EXPECT_EQ(std::memcmp(&got, &pub, sizeof got), 0) << width;
    EXPECT_EQ(std::memcmp(&got_w, &pub_w, sizeof got_w), 0) << width;
  }
  EXPECT_EQ(alignment({}, {}, 16), 0.0);
  EXPECT_EQ(weight({}, 16), 0.0);
}

TEST(BitsDispatchParity, PortableScansMatch) {
  expect_scans_match_elementwise(
      [](Words a, Words b, int width) {
        return detail::average_alignment_portable(a, b, width);
      },
      [](Words words, int width) {
        return detail::average_weight_fraction_portable(words, width);
      });
}

TEST(BitsDispatchParity, PopcntScansMatch) {
  if (!cpu_has_popcnt()) {
    GTEST_SKIP() << "this CPU has no popcnt instruction";
  }
  expect_scans_match_elementwise(
      [](Words a, Words b, int width) {
        return detail::average_alignment_popcnt(a, b, width);
      },
      [](Words words, int width) {
        return detail::average_weight_fraction_popcnt(words, width);
      });
}

// The in-place storage scans (float16_t, int8_value_t and float spans)
// equal the uint32_t scans of gemm::raw_bits, bit for bit, in both
// compiled variants and through the public dispatch.

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

template <typename T>
void expect_storage_scans_match_raw_bits(const gemm::Matrix<T>& a,
                                         const gemm::Matrix<T>& b,
                                         int width) {
  const std::vector<std::uint32_t> a_raw = gemm::raw_bits(a);
  const std::vector<std::uint32_t> b_raw = gemm::raw_bits(b);
  const std::span<const T> a_words = a.span();
  const std::span<const T> b_words = b.span();
  const double alignment =
      detail::average_alignment_portable(Words(a_raw), Words(b_raw), width);
  const double weight =
      detail::average_weight_fraction_portable(Words(a_raw), width);
  EXPECT_TRUE(same_bits(
      detail::average_alignment_portable(a_words, b_words, width), alignment));
  EXPECT_TRUE(same_bits(
      detail::average_weight_fraction_portable(a_words, width), weight));
  EXPECT_TRUE(same_bits(average_alignment(a_words, b_words, width), alignment));
  EXPECT_TRUE(same_bits(average_weight_fraction(a_words, width), weight));
  if (cpu_has_popcnt()) {
    EXPECT_TRUE(same_bits(
        detail::average_alignment_popcnt(a_words, b_words, width), alignment));
    EXPECT_TRUE(same_bits(
        detail::average_weight_fraction_popcnt(a_words, width), weight));
  }
}

TEST(BitsDispatchParity, StorageScansMatchRawBitsOnFig4aInputs) {
  // Fig. 4a: one constant per matrix with a fraction of every element's
  // bits flipped, which puts NaN and Inf patterns in the FP storage.
  for (const DType dtype : kAllDTypes) {
    for (const double fraction : {0.25, 0.5, 0.875}) {
      core::PatternSpec spec;
      spec.value = core::PatternSpec::Value::kConstant;
      spec.bitop = core::PatternSpec::BitOp::kFlipRandom;
      spec.bit_fraction = fraction;
      core::with_storage_type(dtype, [&](auto tag) {
        using T = typename decltype(tag)::type;
        const auto inputs = core::build_inputs<T>(spec, dtype, 64, 0xF14Au);
        SCOPED_TRACE(std::string(name(dtype)) + " " +
                     std::to_string(fraction));
        expect_storage_scans_match_raw_bits(inputs.a, inputs.b,
                                            bit_width(dtype));
      });
    }
  }
}

TEST(BitsDispatchParity, StorageScansMatchRawBitsOnSignedZeros) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> a{0.0f, -0.0f, 0.0f, -0.0f, 1.0f, -1.0f, nan, 0.0f};
  const std::vector<float> b{0.0f, 0.0f, -0.0f, -0.0f, -0.0f, 0.0f, -0.0f, nan};
  for (const DType dtype : kAllDTypes) {
    core::with_storage_type(dtype, [&](auto tag) {
      using T = typename decltype(tag)::type;
      SCOPED_TRACE(name(dtype));
      expect_storage_scans_match_raw_bits(gemm::materialize<T>(a, 2, 4),
                                          gemm::materialize<T>(b, 2, 4),
                                          bit_width(dtype));
    });
  }
}

}  // namespace
}  // namespace gpupower::numeric
