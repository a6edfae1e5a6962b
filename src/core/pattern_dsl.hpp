// Pattern DSL — the input-specification language Section V sketches for the
// input-dependent power model: "a power model would take in different data
// patterns as inputs (e.g., specified via a domain-specific language)".
//
// Grammar (whitespace-insensitive):
//   spec   := stage ('|' stage)*
//   stage  := name '(' args? ')'
//   args   := arg (',' arg)*
//   arg    := [key '='] number | percentage
//
// Stages (one value stage, at most one placement, sparsity, and bit stage):
//   gaussian(mean=M, sigma=S)        value distribution (defaults 0, paper sigma)
//   set(size=K, mean=M, sigma=S)     K unique values, sampled uniformly
//   constant(mean=M, sigma=S)        one random value per matrix
//   sort_rows(P%) sort_cols(P%) sort_within_rows(P%) full_sort()
//   sparsity(F) | sparsity(P%)       random zeroing
//   flip_bits(F) rand_lsb(F) rand_msb(F) zero_lsb(F) zero_msb(F)
//                                    bit ops; F is the width fraction,
//                                    percentages accepted
//   no_transpose()                   consume B untransposed (Fig. 5a/5c)
//
// Example:
//   "gaussian(sigma=210) | sort_rows(40%) | sparsity(25%) | zero_lsb(0.5)"
#pragma once

#include <string>
#include <string_view>

#include "core/pattern_spec.hpp"

namespace gpupower::core {

struct ParseResult {
  bool ok = false;
  PatternSpec spec;
  std::string error;       ///< empty when ok
  std::size_t error_pos = 0;  ///< byte offset of the error in the input
};

/// Parses a DSL string into a PatternSpec.  Never throws; on failure the
/// result carries a human-readable message and position.
[[nodiscard]] ParseResult parse_pattern(std::string_view text);

/// Serialises a spec back into canonical DSL with exact numbers:
/// parse(to_dsl(s)) == s, bit for bit, for every spec the parser accepts —
/// the display form and the spec-document form are one string.
[[nodiscard]] std::string to_dsl(const PatternSpec& spec);

/// to_dsl with the paper-default sigma (< 0) resolved to its value, 210:
/// the one pattern form the scenario cache key and the activity memo key
/// print, so patterns that build identical inputs share it.
[[nodiscard]] std::string canonical_dsl(const PatternSpec& spec);

}  // namespace gpupower::core
