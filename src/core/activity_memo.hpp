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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/annotations.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "gemm/problem.hpp"
#include "gpusim/simulator.hpp"

namespace gpupower::core {

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
/// every scenario kind.  Thread-safe.  The first requester of a key
/// computes it; concurrent requesters of that key wait on the same entry
/// and start no second walk.  A compute that throws reaches every waiter
/// and its entry is dropped, not cached.  Replicas read the table through
/// an ActivityMemo, which names the requester.
class ActivityMemoTable {
 public:
  /// `capacity` is kActivityMemoCapacity everywhere but the eviction test.
  explicit ActivityMemoTable(std::size_t capacity = kActivityMemoCapacity)
      : capacity_(capacity) {}
  ActivityMemoTable(const ActivityMemoTable&) = delete;
  ActivityMemoTable& operator=(const ActivityMemoTable&) = delete;

  /// Lookups of `kind` served by an existing entry (waits on an in-flight
  /// entry included) / that computed their entry.
  [[nodiscard]] std::uint64_t hits(ScenarioKind kind) const noexcept;
  [[nodiscard]] std::uint64_t misses(ScenarioKind kind) const noexcept;
  /// Entries held, in-flight ones included.
  [[nodiscard]] std::size_t size() const;
  /// Drops every completed entry (in-flight ones finish and stay shared);
  /// resets no counters.
  void clear();

 private:
  friend class ActivityMemo;
  struct Entry;

  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar done_cv_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_
      GPUPOWER_GUARDED_BY(mutex_);
  /// Keys of completed entries, oldest first (the eviction order).
  std::deque<std::string> completed_ GPUPOWER_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> hits_[kScenarioKindCount] = {};
  std::atomic<std::uint64_t> misses_[kScenarioKindCount] = {};
};

/// One requester's view of an ActivityMemoTable: the kind whose counters
/// its lookups bump and the scenario key its `activity.memo` spans carry
/// (an obs::intern()ed string, or nullptr).  Cheap to build per replica.
class ActivityMemo {
 public:
  ActivityMemo(ActivityMemoTable& table, ScenarioKind kind,
               const char* trace_key = nullptr) noexcept
      : table_(&table), kind_(kind), trace_key_(trace_key) {}

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
