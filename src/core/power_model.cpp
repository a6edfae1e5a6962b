#include "core/power_model.hpp"

#include <bit>
#include <cmath>
#include <vector>

#include "gpusim/energy_model.hpp"
#include "numeric/bits.hpp"

namespace gpupower::core {
namespace {

constexpr std::size_t kDim = DataFeatures::kCount + 1;  // + intercept

/// Solves the symmetric system A x = b by Gaussian elimination with partial
/// pivoting (kDim is tiny; numerical heroics are unnecessary).
bool solve(std::array<std::array<double, kDim>, kDim>& a,
           std::array<double, kDim>& b, std::array<double, kDim>& x) {
  for (std::size_t col = 0; col < kDim; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < kDim; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-14) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < kDim; ++r) {
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c < kDim; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (std::size_t i = kDim; i-- > 0;) {
    double sum = b[i];
    for (std::size_t c = i + 1; c < kDim; ++c) sum -= a[i][c] * x[c];
    x[i] = sum / a[i][i];
  }
  return true;
}

template <typename T>
std::uint32_t exponent_field(std::uint32_t bits) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return (bits >> 23) & 0xFFu;
  } else if constexpr (std::is_same_v<T, gpupower::numeric::float16_t>) {
    return (bits >> 10) & 0x1Fu;
  } else {
    (void)bits;
    return 0;
  }
}

}  // namespace

template <typename T>
DataFeatures extract_features(const gemm::Matrix<T>& a,
                              const gemm::Matrix<T>& b) {
  using traits = gpupower::numeric::scalar_traits<T>;
  constexpr int kWidth = traits::kBits;
  DataFeatures f;
  const std::size_t count = a.size() + b.size();
  if (count == 0) return f;

  std::uint64_t weight = 0;
  std::uint64_t toggles = 0;
  std::uint64_t zeros = 0;
  std::uint64_t exponent = 0;
  double significand = 0.0;
  std::uint64_t toggle_pairs = 0;

  const auto scan = [&](const gemm::Matrix<T>& m) {
    std::uint32_t prev = 0;
    bool has_prev = false;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        const auto bits = static_cast<std::uint32_t>(traits::to_bits(m.at(r, c)));
        weight += static_cast<std::uint64_t>(std::popcount(bits));
        if (traits::is_zero(m.at(r, c))) ++zeros;
        exponent += exponent_field<T>(bits);
        if (has_prev) {
          toggles += static_cast<std::uint64_t>(std::popcount(prev ^ bits));
          ++toggle_pairs;
        }
        prev = bits;
        has_prev = true;
      }
    }
  };
  scan(a);
  scan(b);

  // Significand activity: sample elementwise pairs (one A element against
  // the B element at the same index) — an unbiased proxy for the multiplier
  // partial-product feature without a kernel walk.
  const std::size_t pairs = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto act = gpupower::gpusim::mac_activity(
        static_cast<std::uint32_t>(traits::to_bits(a.span()[i])),
        static_cast<std::uint32_t>(traits::to_bits(b.span()[i])), kWidth);
    significand += act.pp;
  }

  const double denom = static_cast<double>(count);
  f.weight_fraction = static_cast<double>(weight) / denom / kWidth;
  f.neighbor_toggles = toggle_pairs
                           ? static_cast<double>(toggles) /
                                 static_cast<double>(toggle_pairs) / kWidth
                           : 0.0;
  f.zero_fraction = static_cast<double>(zeros) / denom;
  f.exponent_weight = static_cast<double>(exponent) / denom / kWidth;
  f.significand_activity =
      pairs ? significand / static_cast<double>(pairs) /
                  (static_cast<double>(kWidth) * kWidth)
            : 0.0;

  f.alignment =
      gpupower::numeric::average_alignment(a.span(), b.span(), kWidth);
  return f;
}

template DataFeatures extract_features<float>(const gemm::Matrix<float>&,
                                              const gemm::Matrix<float>&);
template DataFeatures extract_features<gpupower::numeric::float16_t>(
    const gemm::Matrix<gpupower::numeric::float16_t>&,
    const gemm::Matrix<gpupower::numeric::float16_t>&);
template DataFeatures extract_features<gpupower::numeric::int8_value_t>(
    const gemm::Matrix<gpupower::numeric::int8_value_t>&,
    const gemm::Matrix<gpupower::numeric::int8_value_t>&);

InputDependentPowerModel InputDependentPowerModel::fit(
    std::span<const PowerSample> samples, double ridge) {
  InputDependentPowerModel model;
  std::array<std::array<double, kDim>, kDim> ata{};
  std::array<double, kDim> atb{};

  for (const PowerSample& s : samples) {
    std::array<double, kDim> row;
    row[0] = 1.0;
    const auto feats = s.features.vector();
    for (std::size_t i = 0; i < DataFeatures::kCount; ++i) row[i + 1] = feats[i];
    for (std::size_t i = 0; i < kDim; ++i) {
      for (std::size_t j = 0; j < kDim; ++j) ata[i][j] += row[i] * row[j];
      atb[i] += row[i] * s.power_w;
    }
  }
  for (std::size_t i = 1; i < kDim; ++i) ata[i][i] += ridge;

  std::array<double, kDim> x{};
  if (solve(ata, atb, x)) {
    model.intercept_ = x[0];
    for (std::size_t i = 0; i < DataFeatures::kCount; ++i) {
      model.weights_[i] = x[i + 1];
    }
  }
  return model;
}

double InputDependentPowerModel::predict(const DataFeatures& f) const noexcept {
  double p = intercept_;
  const auto feats = f.vector();
  for (std::size_t i = 0; i < DataFeatures::kCount; ++i) {
    p += weights_[i] * feats[i];
  }
  return p;
}

double InputDependentPowerModel::r2(std::span<const PowerSample> samples) const {
  if (samples.size() < 2) return 0.0;
  double mean = 0.0;
  for (const auto& s : samples) mean += s.power_w;
  mean /= static_cast<double>(samples.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (const auto& s : samples) {
    const double err = s.power_w - predict(s.features);
    ss_res += err * err;
    ss_tot += (s.power_w - mean) * (s.power_w - mean);
  }
  return ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 0.0;
}

}  // namespace gpupower::core
