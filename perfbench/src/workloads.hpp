// The benchmark's three workloads as generated spec documents.  The program
// under test only ever sees these spec texts (and, for serve_warm, request
// lines made from them); everything seeded derives from --seed here.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kFigureSweep, kFleetGrid, kServeWarm };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kFigureSweep, Workload::kFleetGrid, Workload::kServeWarm};

[[nodiscard]] std::string_view workload_name(Workload workload) noexcept;
[[nodiscard]] bool parse_workload(std::string_view text, Workload& out);

/// Inputs repeat every kSeedClasses seeds, so the expected-outputs file can
/// hold the exact digest of every point the benchmark can produce.
inline constexpr int kSeedClasses = 16;
[[nodiscard]] int seed_class(std::uint64_t seed) noexcept;

/// One request: a campaign spec on one line, and the id its points are
/// filed under in the expected-outputs file ("<id>:<point label>").
struct WorkloadRequest {
  std::string id;
  std::string text;
};

/// figure_sweep: fig3a / fig4a / fig5a / fig6a, each over fp32, fp16,
/// fp16t and int8 at N=1024, seeds=1, sampled plan (tiles=12,
/// k_fraction=0.5) — 136 points.
[[nodiscard]] std::vector<WorkloadRequest> figure_sweep_requests(int cls);

/// fleet_grid: 4 staggered A100s, thermal on, 4 allocators x 5 cap levels
/// at N=1024, seeds=4 — 20 points sharing one GEMM working point per seed.
[[nodiscard]] std::vector<WorkloadRequest> fleet_grid_requests(int cls);

/// serve_warm's corpus: 4 GPUs x 4 dtypes x 8 figures, one small static
/// campaign each (N=256, seeds=1) — 128 requests, 1056 points.  Fixed: the
/// seed picks which of them the clients send, not what they contain.
[[nodiscard]] std::vector<WorkloadRequest> serve_corpus_requests();

}  // namespace perfbench
