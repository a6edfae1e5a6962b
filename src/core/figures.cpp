#include "core/figures.hpp"

#include <cmath>
#include <sstream>

namespace gpupower::core {
namespace {

std::string number_label(double v) {
  std::ostringstream ss;
  if (v == std::floor(v) && std::fabs(v) < 1e9) {
    ss << static_cast<long long>(v);
  } else {
    ss << v;
  }
  return ss.str();
}

std::vector<SweepPoint> percent_sweep(PatternSpec base,
                                      PatternSpec::Place place) {
  std::vector<SweepPoint> points;
  for (const double pct : {0.0, 20.0, 40.0, 60.0, 80.0, 100.0}) {
    PatternSpec spec = base;
    spec.place = place;
    spec.sort_percent = pct;
    points.push_back({number_label(pct) + "%", pct, spec});
  }
  return points;
}

std::vector<SweepPoint> bit_fraction_sweep(PatternSpec::BitOp op,
                                           PatternSpec base) {
  std::vector<SweepPoint> points;
  for (const double frac : {0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875,
                            1.0}) {
    PatternSpec spec = base;
    spec.bitop = op;
    spec.bit_fraction = frac;
    points.push_back({number_label(frac * 100.0) + "%", frac, spec});
  }
  return points;
}

std::vector<SweepPoint> sparsity_sweep(PatternSpec base) {
  std::vector<SweepPoint> points;
  for (const double pct : {0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0,
                           80.0, 90.0, 100.0}) {
    PatternSpec spec = base;
    spec.sparsity = pct / 100.0;
    points.push_back({number_label(pct) + "%", pct, spec});
  }
  return points;
}

}  // namespace

std::string_view figure_name(FigureId id) noexcept {
  switch (id) {
    case FigureId::kFig3aDistributionStd:
      return "Fig. 3a: distribution standard deviation";
    case FigureId::kFig3bDistributionMean:
      return "Fig. 3b: distribution mean";
    case FigureId::kFig3cValueSet:
      return "Fig. 3c: inputs from a set";
    case FigureId::kFig4aRandomBitFlips:
      return "Fig. 4a: random bit flips";
    case FigureId::kFig4bLsbRandomized:
      return "Fig. 4b: least significant bits randomized";
    case FigureId::kFig4cMsbRandomized:
      return "Fig. 4c: most significant bits randomized";
    case FigureId::kFig5aSortedRows:
      return "Fig. 5a: sorted into rows";
    case FigureId::kFig5bSortedAligned:
      return "Fig. 5b: sorted and aligned";
    case FigureId::kFig5cSortedColumns:
      return "Fig. 5c: sorted into columns";
    case FigureId::kFig5dSortedWithinRows:
      return "Fig. 5d: sorted within rows";
    case FigureId::kFig6aSparsity:
      return "Fig. 6a: general sparsity";
    case FigureId::kFig6bSparsityAfterSort:
      return "Fig. 6b: sparsity after sorting";
    case FigureId::kFig6cLsbZeroed:
      return "Fig. 6c: sparsity in least significant bits";
    case FigureId::kFig6dMsbZeroed:
      return "Fig. 6d: sparsity in most significant bits";
  }
  return "?";
}

std::string_view figure_key(FigureId id) noexcept {
  switch (id) {
    case FigureId::kFig3aDistributionStd:
      return "fig3a";
    case FigureId::kFig3bDistributionMean:
      return "fig3b";
    case FigureId::kFig3cValueSet:
      return "fig3c";
    case FigureId::kFig4aRandomBitFlips:
      return "fig4a";
    case FigureId::kFig4bLsbRandomized:
      return "fig4b";
    case FigureId::kFig4cMsbRandomized:
      return "fig4c";
    case FigureId::kFig5aSortedRows:
      return "fig5a";
    case FigureId::kFig5bSortedAligned:
      return "fig5b";
    case FigureId::kFig5cSortedColumns:
      return "fig5c";
    case FigureId::kFig5dSortedWithinRows:
      return "fig5d";
    case FigureId::kFig6aSparsity:
      return "fig6a";
    case FigureId::kFig6bSparsityAfterSort:
      return "fig6b";
    case FigureId::kFig6cLsbZeroed:
      return "fig6c";
    case FigureId::kFig6dMsbZeroed:
      return "fig6d";
  }
  return "?";
}

bool parse_figure_id(std::string_view text, FigureId& out) {
  std::string canon;
  for (const char c : text) {
    if (c == '.' || c == '_' || c == '-' || c == ' ') continue;
    canon.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (canon.rfind("figure", 0) == 0) canon = "fig" + canon.substr(6);
  if (canon.rfind("fig", 0) != 0) canon = "fig" + canon;
  for (const FigureId id : kAllFigures) {
    if (canon == figure_key(id)) {
      out = id;
      return true;
    }
  }
  return false;
}

PatternSpec baseline_gaussian_spec() {
  PatternSpec spec;  // gaussian, mean 0, paper-default sigma, B transposed
  return spec;
}

std::vector<SweepPoint> figure_sweep(FigureId id) {
  std::vector<SweepPoint> points;
  switch (id) {
    case FigureId::kFig3aDistributionStd: {
      for (const double sigma : {1.0, 4.0, 16.0, 64.0, 210.0, 1024.0, 4096.0,
                                 16384.0}) {
        PatternSpec spec = baseline_gaussian_spec();
        spec.sigma = sigma;
        points.push_back({number_label(sigma), sigma, spec});
      }
      break;
    }
    case FigureId::kFig3bDistributionMean: {
      for (const double mean : {0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0,
                                4096.0, 16384.0}) {
        PatternSpec spec = baseline_gaussian_spec();
        spec.mean = mean;
        spec.sigma = 1.0;
        points.push_back({number_label(mean), mean, spec});
      }
      break;
    }
    case FigureId::kFig3cValueSet: {
      for (const std::size_t size : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{16},
                                     std::size_t{64}, std::size_t{256},
                                     std::size_t{1024}, std::size_t{4096}}) {
        PatternSpec spec = baseline_gaussian_spec();
        spec.value = PatternSpec::Value::kValueSet;
        spec.set_size = size;
        points.push_back(
            {number_label(static_cast<double>(size)),
             static_cast<double>(size), spec});
      }
      break;
    }
    case FigureId::kFig4aRandomBitFlips: {
      PatternSpec base = baseline_gaussian_spec();
      base.value = PatternSpec::Value::kConstant;
      points = bit_fraction_sweep(PatternSpec::BitOp::kFlipRandom, base);
      break;
    }
    case FigureId::kFig4bLsbRandomized: {
      PatternSpec base = baseline_gaussian_spec();
      base.value = PatternSpec::Value::kConstant;
      points = bit_fraction_sweep(PatternSpec::BitOp::kRandomizeLow, base);
      break;
    }
    case FigureId::kFig4cMsbRandomized: {
      PatternSpec base = baseline_gaussian_spec();
      base.value = PatternSpec::Value::kConstant;
      points = bit_fraction_sweep(PatternSpec::BitOp::kRandomizeHigh, base);
      break;
    }
    case FigureId::kFig5aSortedRows: {
      PatternSpec base = baseline_gaussian_spec();
      base.transpose_b = false;  // paper: "The B matrix is not transposed"
      points = percent_sweep(base, PatternSpec::Place::kSortRows);
      break;
    }
    case FigureId::kFig5bSortedAligned: {
      PatternSpec base = baseline_gaussian_spec();
      base.transpose_b = true;  // low values of A multiply low values of B
      points = percent_sweep(base, PatternSpec::Place::kSortRows);
      break;
    }
    case FigureId::kFig5cSortedColumns: {
      PatternSpec base = baseline_gaussian_spec();
      base.transpose_b = false;
      points = percent_sweep(base, PatternSpec::Place::kSortColumns);
      break;
    }
    case FigureId::kFig5dSortedWithinRows: {
      PatternSpec base = baseline_gaussian_spec();
      base.transpose_b = true;  // intra-row sorted and aligned across matrices
      points = percent_sweep(base, PatternSpec::Place::kSortWithinRows);
      break;
    }
    case FigureId::kFig6aSparsity:
      points = sparsity_sweep(baseline_gaussian_spec());
      break;
    case FigureId::kFig6bSparsityAfterSort: {
      PatternSpec base = baseline_gaussian_spec();
      base.place = PatternSpec::Place::kFullSort;
      points = sparsity_sweep(base);
      break;
    }
    case FigureId::kFig6cLsbZeroed:
      points = bit_fraction_sweep(PatternSpec::BitOp::kZeroLow,
                                  baseline_gaussian_spec());
      break;
    case FigureId::kFig6dMsbZeroed:
      points = bit_fraction_sweep(PatternSpec::BitOp::kZeroHigh,
                                  baseline_gaussian_spec());
      break;
  }
  return points;
}

}  // namespace gpupower::core
