// MemoTable: the in-flight-sharing memo core behind the engine's two
// working-point tables, ActivityMemoTable (activity totals per working
// point, core/activity_memo.hpp) and ValuesMemoTable (generated FP32 value
// streams, core/values_memo.hpp).
//
// The first requester of a key computes its value outside the lock;
// concurrent requesters of that key wait on the same entry and start no
// second compute.  A compute that throws reaches every waiter, and its
// entry is dropped, not cached.  Completed entries are kept while their
// summed cost fits the table's budget, and the oldest completed entry is
// evicted first.  An entry whose own cost exceeds the budget is shared
// only while it is in flight.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/scenario.hpp"

namespace gpupower::core {

/// How a MemoTable lookup was served.
enum class MemoOutcome {
  kHit,   ///< by a completed entry
  kWait,  ///< by an in-flight entry, after waiting for it
  kMiss,  ///< by computing the entry
};

/// The span-arg spelling of an outcome: "hit", "wait" or "miss".
[[nodiscard]] constexpr const char* outcome_name(MemoOutcome outcome) noexcept {
  switch (outcome) {
    case MemoOutcome::kHit:
      return "hit";
    case MemoOutcome::kWait:
      return "wait";
    case MemoOutcome::kMiss:
      break;
  }
  return "miss";
}

/// Thread-safe.  Lookups are counted per requesting scenario kind.
template <typename V>
class MemoTable {
 public:
  /// Cost of one completed value, in the budget's unit.
  using CostFn = std::size_t (*)(const V&) noexcept;

  MemoTable(std::size_t budget, CostFn cost) noexcept
      : budget_(budget), cost_(cost) {}
  MemoTable(const MemoTable&) = delete;
  MemoTable& operator=(const MemoTable&) = delete;

  /// The value for `key`.  Without an entry, `compute()` runs here and
  /// its value (or exception) is published to every waiter; with one, the
  /// entry's value is returned, after waiting for it while in flight.
  /// `outcome` receives how the lookup was served, `kind` names the
  /// requester whose counters it bumps.
  template <typename Compute>
  V get(std::string key, ScenarioKind kind, Compute&& compute,
        MemoOutcome& outcome) {
    const std::size_t k = static_cast<std::size_t>(kind);
    std::shared_ptr<Entry> entry;
    bool compute_here = false;
    {
      MutexLock lock(mutex_);
      auto [it, inserted] = entries_.try_emplace(key);
      if (inserted) {
        it->second = std::make_shared<Entry>();
        compute_here = true;
      }
      entry = it->second;
    }

    if (compute_here) {
      outcome = MemoOutcome::kMiss;
      misses_[k].fetch_add(1, std::memory_order_relaxed);
      V value{};
      std::exception_ptr error;
      try {
        value = compute();
      } catch (...) {
        error = std::current_exception();
      }
      std::vector<std::shared_ptr<Entry>> evicted;
      {
        MutexLock lock(mutex_);
        entry->done = true;
        if (error) {
          entry->error = error;
          entries_.erase(key);  // dropped, not cached
        } else {
          entry->value = value;
          entry->cost = cost_(value);
          if (entry->cost > budget_) {
            entries_.erase(key);  // shared while in flight only
          } else {
            held_ += entry->cost;
            completed_.push_back(std::move(key));
            while (held_ > budget_) evict_oldest(evicted);
          }
        }
      }
      done_cv_.notify_all();
      if (error) std::rethrow_exception(error);
      return value;
    }

    hits_[k].fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mutex_);
    outcome = entry->done ? MemoOutcome::kHit : MemoOutcome::kWait;
    while (!entry->done) done_cv_.wait(mutex_);
    if (entry->error) std::rethrow_exception(entry->error);
    return entry->value;
  }

  /// Lookups of `kind` served by an existing entry (waits on an in-flight
  /// entry included) / that computed their entry.
  [[nodiscard]] std::uint64_t hits(ScenarioKind kind) const noexcept {
    return hits_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses(ScenarioKind kind) const noexcept {
    return misses_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  /// Entries held, in-flight ones included.
  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mutex_);
    return entries_.size();
  }
  /// Summed cost of the completed entries held.
  [[nodiscard]] std::size_t held_cost() const {
    MutexLock lock(mutex_);
    return held_;
  }
  /// Drops every completed entry (in-flight ones finish and stay shared);
  /// resets no counters.  The values are released after the lock.
  void clear() {
    std::vector<std::shared_ptr<Entry>> evicted;
    MutexLock lock(mutex_);
    while (!completed_.empty()) evict_oldest(evicted);
  }

 private:
  struct Entry {
    // Guarded by the owning table's mutex (annotations cannot name it here).
    bool done = false;
    V value{};
    std::exception_ptr error;
    std::size_t cost = 0;
  };

  /// Moves the oldest completed entry into `evicted`, so its value is
  /// destroyed once the caller has released the lock.
  void evict_oldest(std::vector<std::shared_ptr<Entry>>& evicted)
      GPUPOWER_REQUIRES(mutex_) {
    const auto it = entries_.find(completed_.front());
    held_ -= it->second->cost;
    evicted.push_back(std::move(it->second));
    entries_.erase(it);
    completed_.pop_front();
  }

  const std::size_t budget_;
  const CostFn cost_;
  mutable Mutex mutex_;
  CondVar done_cv_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_
      GPUPOWER_GUARDED_BY(mutex_);
  /// Keys of completed entries, oldest first (the eviction order).
  std::deque<std::string> completed_ GPUPOWER_GUARDED_BY(mutex_);
  std::size_t held_ GPUPOWER_GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> hits_[kScenarioKindCount] = {};
  std::atomic<std::uint64_t> misses_[kScenarioKindCount] = {};
};

}  // namespace gpupower::core
