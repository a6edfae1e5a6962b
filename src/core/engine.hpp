// ExperimentEngine: the batched, cached, parallel front end to the
// experiment pipeline — the long-lived subsystem behind every sweep-scale
// workload (14 figures x 4 datatypes x sweep points x 10 seeds in the
// paper's full protocol).
//
// Every submission — classic static experiment, DVFS timeline replay,
// power-capped fleet — goes through ONE type-erased entry point:
//
//   ExperimentEngine engine;                        // worker pool sized to HW
//   auto a = engine.submit(experiment_config);      // ScenarioConfig converts
//   auto b = engine.submit(fleet_config);           // implicitly from any kind
//   engine.wait_all();
//   const ExperimentResult& r = a.get().static_result();  // blocks if running
//   const FleetResult& f = b.get().fleet();
//
// A figure sweep is a loop over figure_sweep(id) (core/figures.hpp) or a
// campaign spec with a "figure" axis (core/spec.hpp).  New scenario kinds
// plug in through the registry in core/scenario.hpp without touching the
// engine.
//
// Guarantees:
//  - Results are bit-identical to the serial reference run_scenario: seed
//    replicas derive independent RNG streams, the engine computes them in
//    parallel and folds them in seed order through the kind's reduce hook.
//  - Submissions are de-duplicated through an in-engine cache keyed by
//    `canonical_scenario_key` (kind-prefixed), so sweeps sharing points —
//    e.g. every figure's baseline column — are computed once.  In-flight
//    duplicates attach to the running job.
//  - `submit` never blocks; per-seed tasks fan out across a fixed worker
//    pool shared by all outstanding jobs of every kind.
//  - Replicas of every kind share one activity walk per working point
//    through the engine's ActivityMemoTable (core/activity_memo.hpp): a
//    fleet grid sweeping caps x allocators builds its inputs and walks
//    them once per seed, not once per grid point.  The memo key is the
//    canonical pattern form plus dtype, n, the GEMM problem, base_seed,
//    seed index and the sampling plan; it holds totals only, at most
//    kActivityMemoCapacity completed entries (oldest evicted first), and
//    clear_cache() empties it.  A cache-less engine (cache_enabled =
//    false) bypasses it and recomputes every walk, like run_scenario.
//  - The memo's input builds draw their FP32 value streams from the
//    engine's ValuesMemoTable (core/values_memo.hpp): working points that
//    differ only in dtype, placement, sparsity or bit op generate their A
//    and B streams once.  It keeps at most kValuesMemoBudgetBytes of
//    completed streams and drops them whenever the queue drains, so an
//    idle engine holds no stream bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/json.hpp"
#include "core/scenario.hpp"

namespace gpupower::core {

class ResultStore;

namespace detail {
struct ScenarioJob;
struct EngineState;
}  // namespace detail

struct EngineOptions {
  /// Worker threads; 0 sizes the pool to the hardware concurrency.
  int workers = 0;
  /// When false, every submission is computed even if an identical config
  /// was already run (the cache also stops de-duplicating in-flight work).
  /// Disabling the cache also bypasses the store below.
  bool cache_enabled = true;
  /// Optional persistent result store (core/store/result_store.hpp):
  /// submit() consults memory cache -> store -> compute, and completed
  /// jobs write back before they retire, so wait_all() implies every
  /// result is on disk.  Shareable between engines (and, through the
  /// directory, between processes).
  std::shared_ptr<ResultStore> store;

  /// Options with an explicit pool size and everything else defaulted —
  /// the common test/tool spelling that stays valid as fields are added
  /// (brace-init with a partial field list trips
  /// -Wmissing-field-initializers).
  [[nodiscard]] static EngineOptions with_workers(int workers) {
    EngineOptions options;
    options.workers = workers;
    return options;
  }
};

/// One scenario kind's slice of the engine counters — how a campaign run
/// reports where the time went.  The *_seconds fields are cumulative
/// thread-time per pipeline stage, accumulated only while the obs metrics
/// switch is on (core/obs/obs.hpp: gpowerctl --trace-out/--metrics-out,
/// GPUPOWER_TRACE/GPUPOWER_METRICS, serve); they read 0.0 otherwise.
struct EngineKindStats {
  std::uint64_t submitted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t jobs_computed = 0;
  std::uint64_t replicas_run = 0;
  std::uint64_t store_hits = 0;    ///< submits served from the on-disk store
  std::uint64_t store_writes = 0;  ///< completed jobs persisted to the store
  /// Working-point activity lookups of this kind's replicas served by the
  /// engine's memo (waits on an in-flight walk included) / that walked.
  std::uint64_t activity_memo_hits = 0;
  std::uint64_t activity_memo_misses = 0;
  /// Value-stream lookups of this kind's input builds served by the
  /// engine's values memo (waits included) / that generated the stream.
  std::uint64_t values_memo_hits = 0;
  std::uint64_t values_memo_misses = 0;

  double compute_seconds = 0.0;      ///< replica hook time, summed per task
  double queue_wait_seconds = 0.0;   ///< enqueue -> worker-pickup, per task
  double reduce_seconds = 0.0;       ///< seed-order reduction time
  double store_read_seconds = 0.0;   ///< store lookup time (hits and misses)
  double store_write_seconds = 0.0;  ///< store write-back time
};

struct EngineStats {
  std::uint64_t submitted = 0;     ///< total submit() calls, every kind
  std::uint64_t cache_hits = 0;    ///< submits served by an existing job
  std::uint64_t jobs_computed = 0; ///< unique configs actually scheduled
  std::uint64_t replicas_run = 0;  ///< seed-replica tasks executed
  std::uint64_t store_hits = 0;    ///< submits served from the on-disk store
  std::uint64_t store_writes = 0;  ///< completed jobs persisted to the store
  std::uint64_t activity_memo_hits = 0;    ///< sums of the per-kind counts
  std::uint64_t activity_memo_misses = 0;
  std::uint64_t values_memo_hits = 0;
  std::uint64_t values_memo_misses = 0;
  /// Completed stream bytes the values memo holds now: 0 whenever the
  /// engine is idle.
  std::uint64_t values_memo_bytes = 0;

  double compute_seconds = 0.0;      ///< sums of the per-kind timings below
  double queue_wait_seconds = 0.0;
  double reduce_seconds = 0.0;
  double store_read_seconds = 0.0;
  double store_write_seconds = 0.0;

  /// Per-kind breakdown; the aggregate fields above are the sums.
  EngineKindStats by_kind[kScenarioKindCount];

  [[nodiscard]] const EngineKindStats& of(ScenarioKind kind) const noexcept {
    return by_kind[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return submitted - cache_hits;
  }
};

/// Lightweight, copyable reference to any submitted scenario.  Handles to
/// the same (cached) config share the underlying job and result.  Calling
/// get()/ready()/config() on a default-constructed handle throws
/// std::logic_error (check valid() first).
class ScenarioHandle {
 public:
  ScenarioHandle() = default;

  /// Blocks until the scenario finishes; rethrows any worker exception.
  /// The reference stays valid as long as any handle to the job exists.
  [[nodiscard]] const ScenarioResult& get() const;
  /// True once the result is available (non-blocking).
  [[nodiscard]] bool ready() const;
  /// Runs `callback` exactly once when the job is done (failed jobs
  /// included): immediately on the calling thread when it already is
  /// (cache and store hits), otherwise on the worker that finishes it,
  /// after get() waiters are woken and before the store write-back.  The
  /// callback runs with no engine lock held; it must not throw, and it
  /// should only signal (it delays the worker's next task).
  void on_ready(std::function<void()> callback) const;
  /// The config this handle was submitted with.
  [[nodiscard]] const ScenarioConfig& config() const;
  /// Scenario kind (throws std::logic_error on an invalid handle).
  [[nodiscard]] ScenarioKind kind() const;
  [[nodiscard]] bool valid() const noexcept { return job_ != nullptr; }

 private:
  friend class ExperimentEngine;
  explicit ScenarioHandle(std::shared_ptr<detail::ScenarioJob> job)
      : job_(std::move(job)) {}

  std::shared_ptr<detail::ScenarioJob> job_;
};

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineOptions options = {});
  ~ExperimentEngine();

  ExperimentEngine(const ExperimentEngine&) = delete;
  ExperimentEngine& operator=(const ExperimentEngine&) = delete;

  /// How a submit was satisfied — reported through submit()'s out-param
  /// so a caller (serve's per-session accounting) can attribute
  /// dedup/store traffic per client without diffing racy engine-wide
  /// stats snapshots.
  enum class SubmitOutcome {
    kComputed,  ///< scheduled fresh replica work (or joined its in-flight job)
    kCacheHit,  ///< served by an already-cached job, nothing scheduled
    kStoreHit,  ///< loaded from the persistent store, nothing scheduled
  };

  /// The one submission entry point: enqueues any scenario kind (never
  /// blocks).  Identical configs — by canonical_scenario_key — share one
  /// computation and one result.  Throws std::invalid_argument when the
  /// kind's validator rejects the config (zero seeds, empty timeline,
  /// dangling cross-references, ...).  When `outcome` is non-null it
  /// receives how the submit was satisfied.
  ScenarioHandle submit(ScenarioConfig config,
                        SubmitOutcome* outcome = nullptr);

  /// Blocks until every outstanding job has finished.
  void wait_all();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] int workers() const noexcept;

  /// Stable JSON metrics document: `{"gpupower_metrics":1, "engine":
  /// engine_stats_json(stats(), workers()), "obs": obs::registry_json()}`
  /// — the one schema shared by `gpowerctl --metrics-out` and serve
  /// `stats` events, so dashboards never see two spellings.  Timing
  /// fields are zero unless the obs metrics switch is on.
  [[nodiscard]] analysis::JsonValue metrics_json() const;

  /// Drops completed results from the cache (outstanding handles keep
  /// their jobs alive) and completed entries from the activity and values
  /// memos; resets no counters.
  void clear_cache();

 private:
  std::shared_ptr<detail::EngineState> state_;
};

/// One-line human summary of an engine's counters — "4 worker(s), 12
/// submitted, 12 computed, 0 cache hit(s) | fleet: 12 computed, 24
/// replica(s)" — shared by the bench harness and gpowerctl so the
/// per-kind breakdown prints identically everywhere.  Store traffic
/// appends as ", N store hit(s), M store write(s)" (aggregate and
/// per-kind) only when it occurred, so store-less runs print unchanged.
[[nodiscard]] std::string engine_stats_line(const ExperimentEngine& engine);

/// EngineStats as a stable JSON object: the aggregate counters (activity
/// and values memo hits and misses included, which engine_stats_line
/// omits) and timing fields plus a "by_kind" object keyed by kind name
/// (every kind present, fixed key order), prefixed with "workers".  Embedded by the bench
/// documents (tools/bench_export) and by metrics_json(), so the two
/// exports can never drift apart.
[[nodiscard]] analysis::JsonValue engine_stats_json(const EngineStats& stats,
                                                    int workers);

}  // namespace gpupower::core
