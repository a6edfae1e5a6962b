// Shared pieces of the repo benchmark: the metric tables BENCHMARK.json
// mirrors (the self-test checks the two agree), the quantile math every
// latency figure goes through, and small timing helpers on the repo's one
// clock (core::obs::now_ns).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/obs/obs.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (--trace 0).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"points_per_s", "1/s"},
    {"requests_per_s", "1/s"},
    {"request_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Printed by every untraced run but not bounded: on a shared host the
/// serve p99 follows the neighbours' load (README, "Steadiness").
inline constexpr MetricDef kUnbounded[] = {
    {"request_ms_p99", "ms"},
};

/// Per-layer metrics, printed by every traced run (--trace 1), named by
/// the module whose public calls they time.
inline constexpr MetricDef kPerLayer[] = {
    {"inputs.build_ms", "ms"},
    {"inputs.share", "ratio"},
    {"inputs.generate_ms", "ms"},
    {"inputs.place_ms", "ms"},
    {"inputs.sparsify_ms", "ms"},
    {"inputs.materialize_ms", "ms"},
    {"inputs.bitop_ms", "ms"},
    {"inputs.features_ms", "ms"},
    {"inputs.staged_mb", "MB"},
    {"activity.estimate_ms", "ms"},
    {"activity.share", "ratio"},
    {"activity.tiles_walked", "count"},
    {"activity.us_per_tile", "us"},
    {"power.evaluate_us", "us"},
    {"telemetry.sample_us", "us"},
    {"telemetry.samples", "count"},
    {"layers.replicas", "count"},
    {"fleet.variants_ms", "ms"},
    {"fleet.replay_ms", "ms"},
    {"fleet.slices", "count"},
    {"fleet.replicas", "count"},
    {"engine.submit_us", "us"},
    {"engine.queue_wait_s", "s"},
    {"engine.compute_s", "s"},
    {"engine.worker_busy_frac", "ratio"},
    {"engine.submitted", "count"},
    {"engine.replicas_run", "count"},
    {"engine.jobs_computed", "count"},
    {"engine.cache_hits", "count"},
    {"engine.cache_hit_ratio", "ratio"},
    {"engine.working_points", "count"},
    {"engine.redundant_replica_ratio", "ratio"},
    {"store.open_ms", "ms"},
    {"store.read_us", "us"},
    {"store.write_ms", "ms"},
    {"store.lookups", "count"},
    {"store.hits", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.entry_kb", "KB"},
    {"spec.parse_us", "us"},
    {"spec.expand_us", "us"},
    {"spec.key_us", "us"},
    {"spec.key_bytes", "bytes"},
    {"serve.accepted_ms", "ms"},
    {"serve.bytes_per_request", "bytes"},
    {"serve.requests", "count"},
    {"serve.dedup_hits", "count"},
    {"serve.store_hits", "count"},
    {"serve.latency_growth", "ratio"},
    {"traced.points_per_s", "1/s"},
    {"traced.request_ms_p50", "ms"},
    {"traced.request_ms_p99", "ms"},
    {"obs.spans_recorded", "count"},
    {"obs.spans_dropped", "count"},
};

/// Metric values by name; the reporter prints them in table order.
using MetricValues = std::map<std::string, double>;

[[nodiscard]] inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(gpupower::core::obs::now_ns() - start_ns) * 1e-6;
}

/// Quantile by linear interpolation between order statistics (rank
/// q * (n - 1)); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Samples strictly above the interpolation rank of level q in a sample of
/// n: the order statistics a quantile estimate at q rests on.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank =
      static_cast<std::size_t>(std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - rank;
}

/// The highest percentile level, at most 0.99, that keeps at least ten
/// samples beyond it: 0.99 from 1000 samples up, (n - 10) / n below that,
/// and never under the median.
[[nodiscard]] inline double tail_level(std::size_t n) {
  if (n <= 20) return 0.5;
  return std::min(0.99, static_cast<double>(n - 10) / static_cast<double>(n));
}

}  // namespace perfbench
