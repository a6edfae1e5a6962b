#include "gpusim/activity.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/obs/obs.hpp"
#include "numeric/isa.hpp"
#include "patterns/rng.hpp"

namespace gpupower::gpusim {
namespace {

/// K-slice ranges to walk: evenly strided coverage of `fraction` of the
/// slices, deterministic phase from the seed so different experiments sample
/// the same way.
std::vector<std::pair<std::size_t, std::size_t>> select_k_ranges(
    std::size_t k_total, std::size_t k_step, double fraction,
    std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const std::size_t slices = (k_total + k_step - 1) / k_step;
  fraction = std::clamp(fraction, 0.0, 1.0);
  auto wanted = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(slices)));
  wanted = std::clamp<std::size_t>(wanted, 1, slices);
  if (wanted == slices) {
    ranges.emplace_back(0, k_total);
    return ranges;
  }
  const double stride = static_cast<double>(slices) / static_cast<double>(wanted);
  patterns::Xoshiro256 rng(seed);
  const double phase = rng.uniform() * stride;
  for (std::size_t i = 0; i < wanted; ++i) {
    const auto slice = std::min<std::size_t>(
        slices - 1, static_cast<std::size_t>(phase + stride * static_cast<double>(i)));
    const std::size_t begin = slice * k_step;
    ranges.emplace_back(begin, std::min(begin + k_step, k_total));
  }
  // De-duplicate in case rounding produced repeats.
  ranges.erase(std::unique(ranges.begin(), ranges.end()), ranges.end());
  return ranges;
}

/// Reference walker: the per-element observer walk through
/// gemm::process_tile (one ActivityCounters callback per wire event).
template <typename T>
class ObserverWalker {
 public:
  ObserverWalker(const gemm::GemmProblem& problem, const gemm::Matrix<T>& a,
                 const gemm::Matrix<T>& b_storage,
                 const gemm::TileConfig& config)
      : problem_(problem), a_(a), b_(b_storage), config_(config) {}

  void process_tile(const gemm::TileCoord& tile,
                    std::vector<gpupower::numeric::accumulator_t<T>>& acc,
                    std::size_t k_begin, std::size_t k_end) {
    gemm::process_tile(problem_, a_, b_, tile, config_, acc, counters_,
                       k_begin, k_end);
  }

  [[nodiscard]] const ActivityTotals& totals() const noexcept {
    return counters_.totals();
  }

 private:
  const gemm::GemmProblem& problem_;
  const gemm::Matrix<T>& a_;
  const gemm::Matrix<T>& b_;
  const gemm::TileConfig& config_;
  ActivityCounters counters_;
};

namespace portable {
#include "gpusim/bitplane_kernel.inc"
}  // namespace portable

#if GPUPOWER_POPCNT_VARIANT
GPUPOWER_POPCNT_BEGIN
namespace popcnt {
#include "gpusim/bitplane_kernel.inc"
}  // namespace popcnt
GPUPOWER_POPCNT_END
#endif

template <typename T, typename Walker>
ActivityEstimate estimate_with(const gemm::GemmProblem& problem,
                               const gemm::TileConfig& config,
                               const SamplingPlan& plan, Walker& walker) {
  using Acc = gpupower::numeric::accumulator_t<T>;
  ActivityEstimate est;
  std::vector<Acc> acc;

  if (plan.max_tiles == 0) {
    // Exact: full threadblock walk.
    const auto tiles =
        gemm::enumerate_tiles(problem.n, problem.m, config.threadblock);
    for (const auto& tile : tiles) {
      acc.assign(tile.rows * tile.cols, Acc{});
      walker.process_tile(tile, acc, 0, problem.k);
    }
    est.totals = walker.totals();
    est.tiles_walked = est.tiles_total = tiles.size();
    return est;
  }

  // Sampled: warp-tile quanta, stratified over the raster order.
  gemm::TileShape quantum = config.warp;
  quantum.k = config.threadblock.k;
  const auto tiles = gemm::enumerate_tiles(problem.n, problem.m, quantum);
  est.tiles_total = tiles.size();

  std::vector<std::size_t> chosen;
  if (tiles.size() <= plan.max_tiles) {
    chosen.resize(tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) chosen[i] = i;
  } else {
    patterns::Xoshiro256 rng(patterns::derive_seed(plan.seed, 1));
    const double stride =
        static_cast<double>(tiles.size()) / static_cast<double>(plan.max_tiles);
    for (std::size_t i = 0; i < plan.max_tiles; ++i) {
      const double lo = stride * static_cast<double>(i);
      const double hi = stride * static_cast<double>(i + 1);
      const auto idx = std::min<std::size_t>(
          tiles.size() - 1,
          static_cast<std::size_t>(lo + rng.uniform() * (hi - lo)));
      chosen.push_back(idx);
    }
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    est.sampled = true;
  }

  const auto k_ranges = select_k_ranges(problem.k, config.threadblock.k,
                                        plan.k_fraction, plan.seed);
  std::size_t k_walked = 0;
  for (const auto& [b, e] : k_ranges) k_walked += e - b;
  est.k_coverage =
      static_cast<double>(k_walked) / static_cast<double>(problem.k);
  if (est.k_coverage < 1.0) est.sampled = true;

  for (const std::size_t idx : chosen) {
    const auto& tile = tiles[idx];
    acc.assign(tile.rows * tile.cols, Acc{});
    for (const auto& [kb, ke] : k_ranges) {
      walker.process_tile(tile, acc, kb, ke);
    }
  }
  est.tiles_walked = chosen.size();

  est.totals = walker.totals();
  // Scale sampled counts to the full problem.  Output coverage scales by
  // tile count (quanta are equal-sized except at the ragged edge, which the
  // stratified pick samples proportionally); K coverage scales linearly.
  const double scale =
      (static_cast<double>(est.tiles_total) /
       static_cast<double>(std::max<std::size_t>(est.tiles_walked, 1))) /
      std::max(est.k_coverage, 1e-12);
  if (scale != 1.0) est.totals.scale_by(scale);
  return est;
}

}  // namespace

namespace detail {

template <typename T>
ActivityEstimate estimate_batched_portable(const gemm::GemmProblem& problem,
                                           const gemm::Matrix<T>& a,
                                           const gemm::Matrix<T>& b_storage,
                                           const gemm::TileConfig& config,
                                           const SamplingPlan& plan) {
  portable::BitPlaneKernel<T> walker(problem, a, b_storage, config);
  return estimate_with<T>(problem, config, plan, walker);
}

template <typename T>
ActivityEstimate estimate_batched_popcnt(const gemm::GemmProblem& problem,
                                         const gemm::Matrix<T>& a,
                                         const gemm::Matrix<T>& b_storage,
                                         const gemm::TileConfig& config,
                                         const SamplingPlan& plan) {
#if GPUPOWER_POPCNT_VARIANT
  popcnt::BitPlaneKernel<T> walker(problem, a, b_storage, config);
  return estimate_with<T>(problem, config, plan, walker);
#else
  return estimate_batched_portable<T>(problem, a, b_storage, config, plan);
#endif
}

}  // namespace detail

template <typename T>
ActivityEstimate estimate_activity(const gemm::GemmProblem& problem,
                                   const gemm::Matrix<T>& a,
                                   const gemm::Matrix<T>& b_storage,
                                   const gemm::TileConfig& config,
                                   const SamplingPlan& plan,
                                   ActivityBackend backend) {
  // One span per kernel call (per-tile would flood the rings); the walked
  // tile count rides along as an obs counter.
  core::obs::Span span("activity.estimate");
  ActivityEstimate est;
  if (backend == ActivityBackend::kObserver) {
    ObserverWalker<T> walker(problem, a, b_storage, config);
    est = estimate_with<T>(problem, config, plan, walker);
  } else if (numeric::cpu_has_popcnt()) {
    est = detail::estimate_batched_popcnt<T>(problem, a, b_storage, config,
                                             plan);
  } else {
    est = detail::estimate_batched_portable<T>(problem, a, b_storage, config,
                                               plan);
  }
  static core::obs::Counter& tiles_walked =
      core::obs::counter("activity.tiles_walked");
  tiles_walked.add(est.tiles_walked);
  return est;
}

#define GPUPOWER_INSTANTIATE_ACTIVITY(T)                                      \
  template ActivityEstimate estimate_activity<T>(                             \
      const gemm::GemmProblem&, const gemm::Matrix<T>&,                       \
      const gemm::Matrix<T>&, const gemm::TileConfig&, const SamplingPlan&,   \
      ActivityBackend);                                                       \
  template ActivityEstimate detail::estimate_batched_portable<T>(             \
      const gemm::GemmProblem&, const gemm::Matrix<T>&,                       \
      const gemm::Matrix<T>&, const gemm::TileConfig&, const SamplingPlan&);  \
  template ActivityEstimate detail::estimate_batched_popcnt<T>(               \
      const gemm::GemmProblem&, const gemm::Matrix<T>&,                       \
      const gemm::Matrix<T>&, const gemm::TileConfig&, const SamplingPlan&);

GPUPOWER_INSTANTIATE_ACTIVITY(float)
GPUPOWER_INSTANTIATE_ACTIVITY(gpupower::numeric::float16_t)
GPUPOWER_INSTANTIATE_ACTIVITY(gpupower::numeric::int8_value_t)

#undef GPUPOWER_INSTANTIATE_ACTIVITY

}  // namespace gpupower::gpusim
