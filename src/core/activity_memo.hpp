// Working-point activity: the input build and activity walk of one GEMM
// working point, and the engine's memo of it.
//
// In the paper, GEMM power moves with the input data through bit flips,
// which are set by the inputs and the kernel's tiling alone.  The GPU
// model, power cap, allocator and governor that later consume the
// activity totals do not change them.  So every replica of every scenario
// kind that shares (pattern, dtype, n, seed, sampling plan) walks the same
// activity, and a fleet campaign sweeping caps x allocators repeats one
// walk per seed for every grid point.  working_point_activity is the one
// compute path the static, dvfs and fleet replicas share; an ActivityMemo
// lets an ExperimentEngine compute it once per working point.
#pragma once

#include <cstddef>

#include "core/experiment.hpp"
#include "core/memo_table.hpp"
#include "core/scenario.hpp"
#include "gemm/problem.hpp"
#include "gpusim/simulator.hpp"

namespace gpupower::core {

class ValuesMemoTable;

/// Everything a replica of any kind reads from its working point's inputs.
struct WorkingPointActivity {
  gpupower::gpusim::ActivityTotals totals;  ///< the walk, scaled to the problem
  double alignment = 0.0;        ///< Fig. 8 features of the inputs
  double weight_fraction = 0.0;
};

/// Completed entries an ActivityMemoTable keeps; the oldest completed
/// entry goes first.  An entry holds totals and its key, never matrices
/// (a few hundred bytes), so a full table stays in the low megabytes.
inline constexpr std::size_t kActivityMemoCapacity = 4096;

/// The working-point -> activity table an ExperimentEngine owns, shared by
/// every scenario kind: a MemoTable (core/memo_table.hpp) whose entries
/// cost 1 each.  Replicas read the table through an ActivityMemo, which
/// names the requester.
class ActivityMemoTable : public MemoTable<WorkingPointActivity> {
 public:
  /// `capacity` is kActivityMemoCapacity everywhere but the eviction test.
  explicit ActivityMemoTable(std::size_t capacity = kActivityMemoCapacity)
      : MemoTable(capacity,
                  [](const WorkingPointActivity&) noexcept -> std::size_t {
                    return 1;
                  }) {}
};

/// One requester's view of an ActivityMemoTable: the kind whose counters
/// its lookups bump, the scenario key its `activity.memo` spans carry (an
/// obs::intern()ed string, or nullptr), and the ValuesMemoTable its input
/// builds draw their value streams from (or nullptr).  Cheap to build per
/// replica.
class ActivityMemo {
 public:
  ActivityMemo(ActivityMemoTable& table, ScenarioKind kind,
               const char* trace_key = nullptr,
               ValuesMemoTable* values = nullptr) noexcept
      : table_(&table), kind_(kind), trace_key_(trace_key), values_(values) {}

  /// working_point_activity(sim, problem, experiment, pattern, seed_index),
  /// computed at most once per key for the table's lifetime (until
  /// evicted or cleared).  The key is the canonical pattern form (the one
  /// the cache key prints), dtype, n, the problem's shape and transpose,
  /// base_seed, seed_index, and sim's sampling plan.
  [[nodiscard]] WorkingPointActivity get(
      const gpupower::gpusim::GpuSimulator& sim,
      const gemm::GemmProblem& problem, const ExperimentConfig& experiment,
      const PatternSpec& pattern, int seed_index) const;

 private:
  ActivityMemoTable* table_;
  ScenarioKind kind_;
  const char* trace_key_;
  ValuesMemoTable* values_;
};

/// The one compute path of every replica kind: builds seed `seed_index`'s
/// inputs for `pattern` at the experiment's dtype, n and base_seed, and
/// walks `problem` over them with `sim`'s sampling plan and backend.  Pure
/// and thread-safe.  With a non-null `memo` the result comes through it
/// (bit-identical either way); null computes directly.
[[nodiscard]] WorkingPointActivity working_point_activity(
    const gpupower::gpusim::GpuSimulator& sim,
    const gemm::GemmProblem& problem, const ExperimentConfig& experiment,
    const PatternSpec& pattern, int seed_index,
    const ActivityMemo* memo = nullptr);

}  // namespace gpupower::core
