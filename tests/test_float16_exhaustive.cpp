// Exhaustive check of float16_t's inline float -> half conversion: over
// every one of the 2^32 float bit patterns, the inline fast path must give
// the same storage bits as the general branch-by-branch conversion.
// Labelled slow: the general path's subnormal rounding calls nearbyintf,
// so the scan takes tens of CPU-seconds; four threads split it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "numeric/float16.hpp"

namespace gpupower::numeric {
namespace {

struct ScanResult {
  std::uint64_t mismatches = 0;
  std::uint32_t first_mismatch = 0;
};

ScanResult scan(std::uint64_t begin, std::uint64_t end) {
  ScanResult result;
  for (std::uint64_t pattern = begin; pattern < end; ++pattern) {
    const auto bits = static_cast<std::uint32_t>(pattern);
    const float value = std::bit_cast<float>(bits);
    if (float16_t::from_float(value) != float16_t::from_float_slow(value)) {
      if (result.mismatches == 0) result.first_mismatch = bits;
      ++result.mismatches;
    }
  }
  return result;
}

TEST(Float16Exhaustive, InlineConversionMatchesSlowPathOnEveryFloat) {
  constexpr std::uint64_t kPatterns = std::uint64_t{1} << 32;
  constexpr std::uint64_t kThreads = 4;
  std::vector<ScanResult> results(kThreads);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] {
      results[t] = scan(t * kPatterns / kThreads,
                        (t + 1) * kPatterns / kThreads);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const ScanResult& result : results) {
    EXPECT_EQ(result.mismatches, 0u)
        << "first mismatching float bits: 0x" << std::hex
        << result.first_mismatch;
  }
}

}  // namespace
}  // namespace gpupower::numeric
