// Registry of the paper's experiment sweeps: each figure maps to a list of
// sweep points (x value + PatternSpec).  Campaign `figure` axes
// (core/spec.hpp), gpowerctl predict and the tests iterate this registry
// so the definition of every experiment lives in exactly one place.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/pattern_spec.hpp"

namespace gpupower::core {

enum class FigureId {
  kFig3aDistributionStd,
  kFig3bDistributionMean,
  kFig3cValueSet,
  kFig4aRandomBitFlips,
  kFig4bLsbRandomized,
  kFig4cMsbRandomized,
  kFig5aSortedRows,
  kFig5bSortedAligned,
  kFig5cSortedColumns,
  kFig5dSortedWithinRows,
  kFig6aSparsity,
  kFig6bSparsityAfterSort,
  kFig6cLsbZeroed,
  kFig6dMsbZeroed,
};

inline constexpr FigureId kAllFigures[] = {
    FigureId::kFig3aDistributionStd,  FigureId::kFig3bDistributionMean,
    FigureId::kFig3cValueSet,         FigureId::kFig4aRandomBitFlips,
    FigureId::kFig4bLsbRandomized,    FigureId::kFig4cMsbRandomized,
    FigureId::kFig5aSortedRows,       FigureId::kFig5bSortedAligned,
    FigureId::kFig5cSortedColumns,    FigureId::kFig5dSortedWithinRows,
    FigureId::kFig6aSparsity,         FigureId::kFig6bSparsityAfterSort,
    FigureId::kFig6cLsbZeroed,        FigureId::kFig6dMsbZeroed,
};

struct SweepPoint {
  std::string label;  ///< x-axis tick label
  double x = 0.0;     ///< numeric x value
  PatternSpec spec;
};

/// Human-readable figure name ("Fig. 5a: sorted into rows").
[[nodiscard]] std::string_view figure_name(FigureId id) noexcept;

/// The paper's sweep for the figure, at the paper's resolution.
[[nodiscard]] std::vector<SweepPoint> figure_sweep(FigureId id);

/// Parses "fig5a" / "Fig6b" / "3c" style identifiers; returns true on
/// success.
[[nodiscard]] bool parse_figure_id(std::string_view text, FigureId& out);

/// Short identifier ("fig5a") for a figure, the inverse of parse_figure_id.
[[nodiscard]] std::string_view figure_key(FigureId id) noexcept;

/// The baseline random-Gaussian spec of Fig. 2 (paper defaults).
[[nodiscard]] PatternSpec baseline_gaussian_spec();

}  // namespace gpupower::core
