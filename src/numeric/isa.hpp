// Run-time ISA dispatch for the popcount-bound scans (the batched activity
// kernel and the Fig. 8 feature scans).
//
// The default x86-64 target has no popcnt instruction, so std::popcount
// compiles to a bit-trick sequence.  The build adds no -mpopcnt: instead
// the hot scans are compiled twice, once for the portable baseline and
// once between GPUPOWER_POPCNT_BEGIN / GPUPOWER_POPCNT_END, and a caller
// picks one per process with cpu_has_popcnt().  Set-bit counts are
// integers, so both variants produce the same bytes.  Off x86,
// GPUPOWER_POPCNT_VARIANT is 0, the region markers expand to nothing and
// cpu_has_popcnt() is false: only the portable variant ever runs.
#pragma once

#if defined(__x86_64__) || defined(__i386__)
#define GPUPOWER_POPCNT_VARIANT 1
#if defined(__clang__)
#define GPUPOWER_POPCNT_BEGIN \
  _Pragma("clang attribute push(__attribute__((target(\"popcnt\"))), apply_to = function)")
#define GPUPOWER_POPCNT_END _Pragma("clang attribute pop")
#else
#define GPUPOWER_POPCNT_BEGIN \
  _Pragma("GCC push_options") _Pragma("GCC target(\"popcnt\")")
#define GPUPOWER_POPCNT_END _Pragma("GCC pop_options")
#endif
#else
#define GPUPOWER_POPCNT_VARIANT 0
#define GPUPOWER_POPCNT_BEGIN
#define GPUPOWER_POPCNT_END
#endif

namespace gpupower::numeric {

/// True when the running CPU executes popcnt; always false off x86.
/// Probed once, then cached.
[[nodiscard]] bool cpu_has_popcnt() noexcept;

}  // namespace gpupower::numeric
