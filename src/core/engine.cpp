#include "core/engine.hpp"

#include "core/activity_memo.hpp"
#include "core/annotations.hpp"
#include "core/obs/obs.hpp"
#include "core/store/result_store.hpp"
#include "core/values_memo.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace gpupower::core {
namespace detail {

/// One type-erased multi-replica job: one result slot per seed (disjoint
/// writes), an atomic countdown that triggers the in-seed-order reduction
/// through the kind's registry hook, and the done/error latch handles
/// block on.
///
/// Synchronisation map (enforced by -Wthread-safety under clang):
///  - `done`/`result`/`error`/`ready_callbacks` are guarded by `mutex`;
///  - `config` and `cache_key` are written once before the job is
///    published to the cache and immutable afterwards — unguarded;
///  - `replicas` slots are written by exactly one worker each (disjoint
///    indices) and read only by the reduction after the `remaining`
///    acq_rel countdown hits zero — unguarded, ordered by the atomic.
struct ScenarioJob {
  ScenarioConfig config;
  /// Kind-prefixed canonical key; empty when the cache is disabled (no
  /// key is ever computed).  Doubles as the store key for the write-back.
  std::string cache_key;
  /// Interned canonical key for span args (obs::intern — outlives the
  /// job, so late trace flushes never dangle); nullptr when tracing was
  /// off at submit time.  Written once before publish, unguarded.
  const char* trace_key = nullptr;
  std::vector<ScenarioReplica> replicas;
  std::atomic<int> remaining{0};

  mutable Mutex mutex;
  mutable CondVar cv;
  bool done GPUPOWER_GUARDED_BY(mutex) = false;
  ScenarioResult result GPUPOWER_GUARDED_BY(mutex);
  std::exception_ptr error GPUPOWER_GUARDED_BY(mutex);
  /// ScenarioHandle::on_ready callbacks registered before `done`; the
  /// finishing worker swaps them out and runs them after unlocking.
  std::vector<std::function<void()>> ready_callbacks
      GPUPOWER_GUARDED_BY(mutex);
};

struct EngineState {
  EngineOptions options;    ///< immutable after the constructor
  int worker_count = 1;     ///< immutable after the constructor
  std::vector<std::thread> threads;  ///< constructor/destructor only

  Mutex queue_mutex;
  CondVar queue_cv;
  /// One task per seed replica.
  std::deque<std::function<void()>> queue GPUPOWER_GUARDED_BY(queue_mutex);
  bool stop GPUPOWER_GUARDED_BY(queue_mutex) = false;

  Mutex done_mutex;
  CondVar done_cv;
  std::uint64_t outstanding GPUPOWER_GUARDED_BY(done_mutex) = 0;

  mutable Mutex cache_mutex;
  /// One cache for every kind; keys are kind-prefixed
  /// (canonical_scenario_key), so kinds can never collide.
  std::unordered_map<std::string, std::shared_ptr<ScenarioJob>> cache
      GPUPOWER_GUARDED_BY(cache_mutex);
  EngineStats stats GPUPOWER_GUARDED_BY(cache_mutex);
  std::atomic<std::uint64_t> replicas_run[kScenarioKindCount] = {};
  std::atomic<std::uint64_t> store_writes[kScenarioKindCount] = {};
  /// Per-kind stage timings in ns, accumulated by workers only while the
  /// obs metrics switch is on (relaxed — folded into stats() snapshots).
  std::atomic<std::int64_t> compute_ns[kScenarioKindCount] = {};
  std::atomic<std::int64_t> queue_wait_ns[kScenarioKindCount] = {};
  std::atomic<std::int64_t> reduce_ns[kScenarioKindCount] = {};
  std::atomic<std::int64_t> store_read_ns[kScenarioKindCount] = {};
  std::atomic<std::int64_t> store_write_ns[kScenarioKindCount] = {};
  /// Working point -> activity, shared by the replicas of every kind.
  /// Unused when the cache is disabled (a cache-less engine recomputes by
  /// contract).
  ActivityMemoTable activity_memo;
  /// Value streams, standard normals and rankings, read by the activity
  /// memo's input builds.  Cleared whenever `outstanding` drops to zero.
  ValuesMemoTable values_memo;

  /// The persistent store, when one is attached AND the cache is enabled
  /// (a cache-less engine recomputes by contract, so it must not read
  /// stale results either).  nullptr otherwise.
  [[nodiscard]] const ResultStore* store() const noexcept {
    return options.cache_enabled && options.store && options.store->enabled()
               ? options.store.get()
               : nullptr;
  }
};

namespace {

/// Per-kind span names (indexed by ScenarioKind) — ring buffers store the
/// pointer, so these must be static literals, one per kind.
constexpr const char* kReplicaSpanName[kScenarioKindCount] = {
    "replica.static", "replica.dvfs", "replica.fleet"};
constexpr const char* kReduceSpanName[kScenarioKindCount] = {
    "reduce.static", "reduce.dvfs", "reduce.fleet"};
/// Kind names as guaranteed-null-terminated literals for span args (the
/// registry's string_view spelling is not contractually terminated).
constexpr const char* kKindArgName[kScenarioKindCount] = {"static", "dvfs",
                                                          "fleet"};

/// One timestamp serves both the trace span and the metrics sum; 0 means
/// "everything off, take no clock reads" (obs::now_ns is never 0).
std::int64_t obs_begin() {
  return obs::tracing_enabled() || obs::metrics_enabled() ? obs::now_ns() : 0;
}

/// Closes an interval opened by obs_begin(): records the span (no-op when
/// tracing is off, args attached when given) and accumulates the duration
/// into `sink_ns` (when metrics are on).
void obs_end(const char* span_name, std::int64_t start_ns,
             std::atomic<std::int64_t>& sink_ns,
             const obs::SpanArgs& args = obs::SpanArgs()) {
  if (start_ns == 0) return;
  const std::int64_t end_ns = obs::now_ns();
  obs::record_span(span_name, start_ns, end_ns, args);
  if (obs::metrics_enabled()) {
    sink_ns.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  }
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge = obs::gauge("engine.queue_depth");
  return gauge;
}

/// Post-completion write-back to the persistent store.  Runs after
/// `done` was published under the job mutex and every waiter was
/// notified; no thread writes `result`/`error` past that point, so the
/// lock-free reads here are safe — this escape hatch records that
/// publish-then-freeze protocol for the static analysis (holding the
/// lock instead would stall get() waiters behind the disk write).
void persist_finished_job(EngineState& state, const ScenarioJob& job)
    GPUPOWER_NO_THREAD_SAFETY_ANALYSIS {
  if (const ResultStore* store = state.store();
      store != nullptr && !job.cache_key.empty() && !job.error &&
      job.result.valid()) {
    const std::size_t kind_index =
        static_cast<std::size_t>(job.config.kind());
    // The store.write trace span is recorded inside ResultStore::save;
    // here only the per-kind metrics sum is taken.
    const std::int64_t t0 =
        obs::metrics_enabled() ? obs::now_ns() : std::int64_t{0};
    if (store->save(job.cache_key, job.result)) {
      state.store_writes[kind_index].fetch_add(1, std::memory_order_relaxed);
    }
    if (t0 != 0) {
      state.store_write_ns[kind_index].fetch_add(
          obs::now_ns() - t0, std::memory_order_relaxed);
    }
  }
}

/// Reduces and publishes a finished job, runs its on_ready callbacks,
/// then retires it from the outstanding count.  The registry reduce hook
/// runs under the job lock exactly once and consumes the replica slots.
void finish_job(EngineState& state, const std::shared_ptr<ScenarioJob>& job) {
  const std::size_t kind_index = static_cast<std::size_t>(job->config.kind());
  std::vector<std::function<void()>> callbacks;
  {
    MutexLock lock(job->mutex);
    if (!job->error) {
      const std::int64_t t0 = obs_begin();
      try {
        job->result = scenario_kind_info(job->config.kind())
                          .reduce(job->config, job->replicas);
      } catch (...) {
        job->error = std::current_exception();
      }
      obs::SpanArgs reduce_args;
      if (job->trace_key != nullptr) {
        reduce_args.arg("key", job->trace_key)
            .arg("replicas", static_cast<std::int64_t>(job->replicas.size()));
      }
      obs_end(kReduceSpanName[kind_index], t0, state.reduce_ns[kind_index],
              reduce_args);
    }
    // All writers are done (remaining hit zero) and the reduction has
    // consumed the replicas; release them now — cached DVFS/fleet jobs
    // would otherwise pin every seed's full per-slice trace for the
    // engine's lifetime.
    job->replicas.clear();
    job->replicas.shrink_to_fit();
    job->done = true;
    callbacks.swap(job->ready_callbacks);
  }
  job->cv.notify_all();
  // Callbacks run outside the job lock: a serve session's streamer holds
  // its session lock while it checks ready(), so calling back into the
  // session under the job lock would invert that lock order.
  for (const std::function<void()>& callback : callbacks) callback();
  // Persist before retiring from the outstanding count: wait_all()
  // returning must imply every result is durably in the store, so a warm
  // engine (or process) started right after it cannot race a write still
  // in flight and recompute.  job->done is already published — waiters are
  // not delayed by the disk write.
  persist_finished_job(state, *job);
  {
    MutexLock lock(state.done_mutex);
    --state.outstanding;
    if (state.outstanding == 0) {
      // Drained: streams are shared between working points in flight
      // together, and an idle engine holds no stream bytes.
      state.values_memo.clear();
      state.done_cv.notify_all();
    }
  }
}

/// One seed replica of `job`: runs the kind's replica hook, stores into
/// the seed's disjoint slot, and finishes the job when the countdown hits
/// zero.
void run_replica_task(EngineState& state,
                      const std::shared_ptr<ScenarioJob>& job,
                      int seed_index, std::int64_t enqueue_ns) {
  const ScenarioKindInfo& info = scenario_kind_info(job->config.kind());
  const std::size_t kind_index = static_cast<std::size_t>(info.kind);
  obs::SpanArgs replica_args;
  if (job->trace_key != nullptr) {
    replica_args.arg("key", job->trace_key).arg("seed", seed_index);
  }
  // The queue-wait interval opened at enqueue time closes now that a
  // worker picked the task up (0 = observability was off at submit).
  obs_end("queue.wait", enqueue_ns, state.queue_wait_ns[kind_index],
          replica_args);
  const std::int64_t t0 = obs_begin();
  const ActivityMemo memo(state.activity_memo, info.kind, job->trace_key,
                          &state.values_memo);
  try {
    // Disjoint slots: no lock needed for the write, the job's atomic
    // countdown orders it before the reduction.
    job->replicas[static_cast<std::size_t>(seed_index)] = info.run_replica(
        job->config, seed_index,
        state.options.cache_enabled ? &memo : nullptr);
  } catch (...) {
    MutexLock lock(job->mutex);
    if (!job->error) job->error = std::current_exception();
  }
  if (t0 != 0) {
    const std::int64_t end_ns = obs::now_ns();
    obs::record_span(kReplicaSpanName[kind_index], t0, end_ns, replica_args);
    if (obs::metrics_enabled()) {
      state.compute_ns[kind_index].fetch_add(end_ns - t0,
                                             std::memory_order_relaxed);
      static obs::Histogram& latency =
          obs::histogram("engine.replica_latency_ns");
      latency.record(end_ns - t0);
    }
  }
  state.replicas_run[static_cast<std::size_t>(info.kind)].fetch_add(
      1, std::memory_order_relaxed);

  if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finish_job(state, job);
  }
}

void worker_loop(const std::shared_ptr<EngineState>& state) {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(state->queue_mutex);
      while (!state->stop && state->queue.empty()) {
        state->queue_cv.wait(state->queue_mutex);
      }
      if (state->queue.empty()) return;  // stop requested, queue drained
      task = std::move(state->queue.front());
      state->queue.pop_front();
      if (obs::metrics_enabled()) {
        queue_depth_gauge().set(
            static_cast<std::int64_t>(state->queue.size()));
      }
    }
    task();
  }
}

}  // namespace
}  // namespace detail

namespace {

[[noreturn]] void throw_invalid_handle(const char* method) {
  throw std::logic_error(std::string("ScenarioHandle::") + method +
                         "() on a default-constructed (invalid) handle; "
                         "obtain handles from ExperimentEngine::submit");
}

}  // namespace

const ScenarioResult& ScenarioHandle::get() const {
  if (!job_) throw_invalid_handle("get");
  detail::ScenarioJob& j = *job_;
  MutexLock lock(j.mutex);
  while (!j.done) j.cv.wait(j.mutex);
  if (j.error) std::rethrow_exception(j.error);
  // Returning a reference past the critical section is safe: once `done`
  // is published the result is frozen — finish_job never touches it
  // again, and the job object outlives every handle.
  return j.result;
}

bool ScenarioHandle::ready() const {
  if (!job_) throw_invalid_handle("ready");
  MutexLock lock(job_->mutex);
  return job_->done;
}

void ScenarioHandle::on_ready(std::function<void()> callback) const {
  if (!job_) throw_invalid_handle("on_ready");
  {
    MutexLock lock(job_->mutex);
    if (!job_->done) {
      job_->ready_callbacks.push_back(std::move(callback));
      return;
    }
  }
  callback();
}

const ScenarioConfig& ScenarioHandle::config() const {
  if (!job_) throw_invalid_handle("config");
  return job_->config;
}

ScenarioKind ScenarioHandle::kind() const { return config().kind(); }

ExperimentEngine::ExperimentEngine(EngineOptions options)
    : state_(std::make_shared<detail::EngineState>()) {
  // Every engine binary honours GPUPOWER_TRACE / GPUPOWER_METRICS without
  // touching its main(); explicit gpowerctl flags were applied earlier
  // and win (init_from_env is once-per-process and defers to them).
  obs::init_from_env();
#if defined(__GLIBC__)
  // glibc raises its mmap threshold each time a mapped block is freed (up
  // to 32 MiB on 64-bit), so after a few replicas the MiB-sized input
  // buffers come from the workers' heap arenas, which keep freed space
  // instead of returning it.  A perfbench figure_sweep run (N = 1024, 4
  // workers, 4-core x86-64) then peaks at 196-204 MB RSS, against ~121 MB
  // with the threshold pinned at 1 MiB: pinning also stops the dynamic
  // adjustment, so those buffers are mapped per allocation and unmapped
  // on free, and RSS tracks live data.  Once per process; the result is
  // ignored.
  static const bool mmap_threshold_pinned [[maybe_unused]] =
      mallopt(M_MMAP_THRESHOLD, 1 << 20) != 0;
#endif
  state_->options = options;
  int workers = options.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  state_->worker_count = std::clamp(workers, 1, 256);
  state_->threads.reserve(static_cast<std::size_t>(state_->worker_count));
  for (int i = 0; i < state_->worker_count; ++i) {
    state_->threads.emplace_back(detail::worker_loop, state_);
  }
}

ExperimentEngine::~ExperimentEngine() {
  wait_all();
  {
    MutexLock lock(state_->queue_mutex);
    state_->stop = true;
  }
  state_->queue_cv.notify_all();
  for (std::thread& thread : state_->threads) thread.join();
}

/// The one submit path: validate through the kind's registry hook, consult
/// memory cache -> store -> compute, then fan the seed replicas out as
/// queue tasks.  The canonical key is only computed when the cache is
/// enabled (key serialisation is not free — a DVFS key spells out every
/// timeline phase); the store is only consulted when the cache is (a
/// cache-less engine recomputes by contract).
ScenarioHandle ExperimentEngine::submit(ScenarioConfig config,
                                        SubmitOutcome* outcome) {
  obs::Span submit_span("engine.submit");
  if (outcome != nullptr) *outcome = SubmitOutcome::kComputed;
  const ScenarioKindInfo& info = scenario_kind_info(config.kind());
  const std::string problem = info.validate(config);
  if (!problem.empty()) {
    // Reject malformed configs before scheduling: a worker throwing later
    // would surface the same message, but only at get() time (and cache
    // the poisoned job).
    throw std::invalid_argument("ExperimentEngine::submit(" +
                                std::string(info.name) + "): " + problem);
  }
  const int seeds = config.seeds();
  const std::size_t kind_index = static_cast<std::size_t>(info.kind);
  detail::EngineState& state = *state_;

  // Fully initialise the job before publishing it to the cache, so a
  // concurrent duplicate submit sees a consistent object.
  auto job = std::make_shared<detail::ScenarioJob>();
  job->config = std::move(config);
  if (state.options.cache_enabled) {
    job->cache_key = canonical_scenario_key(job->config);
  }
  if (obs::tracing_enabled()) {
    // Attribution survives the job (interned), and is computed even for a
    // cache-less engine — a trace without scenario identity is useless.
    job->trace_key = obs::intern(state.options.cache_enabled
                                     ? job->cache_key
                                     : canonical_scenario_key(job->config));
    submit_span.args(obs::SpanArgs()
                         .arg("key", job->trace_key)
                         .arg("kind", detail::kKindArgName[kind_index]));
  }
  job->replicas.resize(static_cast<std::size_t>(seeds));
  job->remaining.store(seeds, std::memory_order_relaxed);

  {
    MutexLock lock(state.cache_mutex);
    ++state.stats.submitted;
    ++state.stats.by_kind[kind_index].submitted;
    if (state.options.cache_enabled) {
      const auto it = state.cache.find(job->cache_key);
      if (it != state.cache.end()) {
        ++state.stats.cache_hits;
        ++state.stats.by_kind[kind_index].cache_hits;
        if (outcome != nullptr) *outcome = SubmitOutcome::kCacheHit;
        return ScenarioHandle(it->second);
      }
    }
  }

  // Store lookup happens outside the cache lock — entry files can be
  // large, and a disk read must not serialise unrelated submits.  Two
  // threads racing the same key both load identical bytes; the
  // try_emplace below picks one winner.
  if (const ResultStore* store = state.store(); store != nullptr) {
    ScenarioResult loaded;
    // The store.read trace span is recorded inside ResultStore::load;
    // here only the per-kind metrics sum is taken.
    const std::int64_t read_t0 =
        obs::metrics_enabled() ? obs::now_ns() : std::int64_t{0};
    const bool loaded_ok = store->load(job->cache_key, info.kind, loaded);
    if (read_t0 != 0) {
      state.store_read_ns[kind_index].fetch_add(
          obs::now_ns() - read_t0, std::memory_order_relaxed);
    }
    if (loaded_ok) {
      {
        // The job is unpublished (no other thread can see it yet), but
        // taking its uncontended lock is free and keeps the guarded-field
        // invariant unconditional.
        MutexLock job_lock(job->mutex);
        job->result = std::move(loaded);
        job->done = true;
      }
      job->remaining.store(0, std::memory_order_relaxed);
      job->replicas.clear();
      job->replicas.shrink_to_fit();
      MutexLock lock(state.cache_mutex);
      const auto [it, inserted] = state.cache.try_emplace(job->cache_key, job);
      if (!inserted) {
        ++state.stats.cache_hits;
        ++state.stats.by_kind[kind_index].cache_hits;
        if (outcome != nullptr) *outcome = SubmitOutcome::kCacheHit;
        return ScenarioHandle(it->second);
      }
      ++state.stats.store_hits;
      ++state.stats.by_kind[kind_index].store_hits;
      if (outcome != nullptr) *outcome = SubmitOutcome::kStoreHit;
      return ScenarioHandle(job);
    }
  }

  {
    MutexLock lock(state.cache_mutex);
    if (state.options.cache_enabled) {
      const auto [it, inserted] = state.cache.try_emplace(job->cache_key, job);
      if (!inserted) {
        ++state.stats.cache_hits;
        ++state.stats.by_kind[kind_index].cache_hits;
        if (outcome != nullptr) *outcome = SubmitOutcome::kCacheHit;
        return ScenarioHandle(it->second);
      }
    }
    ++state.stats.jobs_computed;
    ++state.stats.by_kind[kind_index].jobs_computed;
  }

  {
    MutexLock lock(state.done_mutex);
    ++state.outstanding;
  }
  {
    MutexLock lock(state.queue_mutex);
    // One timestamp for the whole batch: each task's queue-wait span
    // opens here and closes when a worker dequeues it (0 = obs off).
    const std::int64_t enqueue_ns = detail::obs_begin();
    for (int s = 0; s < seeds; ++s) {
      state.queue.push_back([&state, job, s, enqueue_ns] {
        detail::run_replica_task(state, job, s, enqueue_ns);
      });
    }
    if (obs::metrics_enabled()) {
      detail::queue_depth_gauge().set(
          static_cast<std::int64_t>(state.queue.size()));
    }
  }
  state.queue_cv.notify_all();
  return ScenarioHandle(std::move(job));
}

void ExperimentEngine::wait_all() {
  MutexLock lock(state_->done_mutex);
  while (state_->outstanding != 0) {
    state_->done_cv.wait(state_->done_mutex);
  }
}

EngineStats ExperimentEngine::stats() const {
  constexpr double kNsToSeconds = 1e-9;
  MutexLock lock(state_->cache_mutex);
  EngineStats stats = state_->stats;
  stats.replicas_run = 0;
  stats.store_writes = 0;
  stats.values_memo_bytes = state_->values_memo.held_bytes();
  for (std::size_t k = 0; k < kScenarioKindCount; ++k) {
    EngineKindStats& kind = stats.by_kind[k];
    kind.replicas_run = state_->replicas_run[k].load(std::memory_order_relaxed);
    stats.replicas_run += kind.replicas_run;
    kind.store_writes = state_->store_writes[k].load(std::memory_order_relaxed);
    stats.store_writes += kind.store_writes;
    kind.activity_memo_hits = state_->activity_memo.hits(kAllScenarioKinds[k]);
    stats.activity_memo_hits += kind.activity_memo_hits;
    kind.activity_memo_misses =
        state_->activity_memo.misses(kAllScenarioKinds[k]);
    stats.activity_memo_misses += kind.activity_memo_misses;
    const ValuesMemoTable& values = state_->values_memo;
    kind.values_memo_hits = values.streams.hits(kAllScenarioKinds[k]);
    stats.values_memo_hits += kind.values_memo_hits;
    kind.values_memo_misses = values.streams.misses(kAllScenarioKinds[k]);
    stats.values_memo_misses += kind.values_memo_misses;
    kind.normals_memo_hits = values.normals.hits(kAllScenarioKinds[k]);
    stats.normals_memo_hits += kind.normals_memo_hits;
    kind.normals_memo_misses = values.normals.misses(kAllScenarioKinds[k]);
    stats.normals_memo_misses += kind.normals_memo_misses;
    kind.rank_memo_hits = values.ranks.hits(kAllScenarioKinds[k]);
    stats.rank_memo_hits += kind.rank_memo_hits;
    kind.rank_memo_misses = values.ranks.misses(kAllScenarioKinds[k]);
    stats.rank_memo_misses += kind.rank_memo_misses;

    kind.compute_seconds =
        static_cast<double>(
            state_->compute_ns[k].load(std::memory_order_relaxed)) *
        kNsToSeconds;
    kind.queue_wait_seconds =
        static_cast<double>(
            state_->queue_wait_ns[k].load(std::memory_order_relaxed)) *
        kNsToSeconds;
    kind.reduce_seconds =
        static_cast<double>(
            state_->reduce_ns[k].load(std::memory_order_relaxed)) *
        kNsToSeconds;
    kind.store_read_seconds =
        static_cast<double>(
            state_->store_read_ns[k].load(std::memory_order_relaxed)) *
        kNsToSeconds;
    kind.store_write_seconds =
        static_cast<double>(
            state_->store_write_ns[k].load(std::memory_order_relaxed)) *
        kNsToSeconds;
    stats.compute_seconds += kind.compute_seconds;
    stats.queue_wait_seconds += kind.queue_wait_seconds;
    stats.reduce_seconds += kind.reduce_seconds;
    stats.store_read_seconds += kind.store_read_seconds;
    stats.store_write_seconds += kind.store_write_seconds;
  }
  return stats;
}

int ExperimentEngine::workers() const noexcept { return state_->worker_count; }

analysis::JsonValue ExperimentEngine::metrics_json() const {
  using analysis::JsonValue;
  JsonValue doc = JsonValue::object();
  doc.set("gpupower_metrics", JsonValue::integer(1));
  doc.set("engine", engine_stats_json(stats(), workers()));
  doc.set("obs", obs::registry_json());
  return doc;
}

void ExperimentEngine::clear_cache() {
  {
    MutexLock lock(state_->cache_mutex);
    state_->cache.clear();
  }
  state_->activity_memo.clear();
  state_->values_memo.clear();
}

std::string engine_stats_line(const ExperimentEngine& engine) {
  const EngineStats stats = engine.stats();
  std::string line = std::to_string(engine.workers()) + " worker(s), " +
                     std::to_string(stats.submitted) + " submitted, " +
                     std::to_string(stats.jobs_computed) + " computed, " +
                     std::to_string(stats.cache_hits) + " cache hit(s)";
  // Store traffic only prints when it occurred, so store-less runs keep
  // the historical line byte-for-byte.
  if (stats.store_hits != 0 || stats.store_writes != 0) {
    line += ", " + std::to_string(stats.store_hits) + " store hit(s), " +
            std::to_string(stats.store_writes) + " store write(s)";
  }
  // Per-kind breakdown (where the time went), only for kinds that ran.
  for (const auto kind : kAllScenarioKinds) {
    const EngineKindStats& k = stats.of(kind);
    if (k.submitted == 0) continue;
    line += " | ";
    line += name(kind);
    line += ": " + std::to_string(k.jobs_computed) + " computed, " +
            std::to_string(k.replicas_run) + " replica(s)";
    if (k.store_hits != 0 || k.store_writes != 0) {
      line += ", " + std::to_string(k.store_hits) + " store hit(s), " +
              std::to_string(k.store_writes) + " store write(s)";
    }
  }
  return line;
}

namespace {

/// The counter + timing fields shared by the aggregate and per-kind
/// objects; `fill` must mirror the EngineKindStats field list.
analysis::JsonValue kind_stats_json(const EngineKindStats& k) {
  using analysis::JsonValue;
  JsonValue out = JsonValue::object();
  out.set("submitted", JsonValue::integer(static_cast<long long>(k.submitted)));
  out.set("cache_hits",
          JsonValue::integer(static_cast<long long>(k.cache_hits)));
  out.set("jobs_computed",
          JsonValue::integer(static_cast<long long>(k.jobs_computed)));
  out.set("replicas_run",
          JsonValue::integer(static_cast<long long>(k.replicas_run)));
  out.set("store_hits",
          JsonValue::integer(static_cast<long long>(k.store_hits)));
  out.set("store_writes",
          JsonValue::integer(static_cast<long long>(k.store_writes)));
  out.set("activity_memo_hits",
          JsonValue::integer(static_cast<long long>(k.activity_memo_hits)));
  out.set("activity_memo_misses",
          JsonValue::integer(static_cast<long long>(k.activity_memo_misses)));
  out.set("values_memo_hits",
          JsonValue::integer(static_cast<long long>(k.values_memo_hits)));
  out.set("values_memo_misses",
          JsonValue::integer(static_cast<long long>(k.values_memo_misses)));
  out.set("normals_memo_hits",
          JsonValue::integer(static_cast<long long>(k.normals_memo_hits)));
  out.set("normals_memo_misses",
          JsonValue::integer(static_cast<long long>(k.normals_memo_misses)));
  out.set("rank_memo_hits",
          JsonValue::integer(static_cast<long long>(k.rank_memo_hits)));
  out.set("rank_memo_misses",
          JsonValue::integer(static_cast<long long>(k.rank_memo_misses)));
  // Hit ratio of the lookups that reached the store: every store consult
  // either hits or falls through to a compute.
  const double lookups =
      static_cast<double>(k.store_hits) + static_cast<double>(k.jobs_computed);
  out.set("store_hit_ratio",
          JsonValue::number(
              lookups > 0.0 ? static_cast<double>(k.store_hits) / lookups
                            : 0.0));
  out.set("compute_seconds", JsonValue::number(k.compute_seconds));
  out.set("queue_wait_seconds", JsonValue::number(k.queue_wait_seconds));
  out.set("reduce_seconds", JsonValue::number(k.reduce_seconds));
  out.set("store_read_seconds", JsonValue::number(k.store_read_seconds));
  out.set("store_write_seconds", JsonValue::number(k.store_write_seconds));
  return out;
}

}  // namespace

analysis::JsonValue engine_stats_json(const EngineStats& stats, int workers) {
  using analysis::JsonValue;
  // The aggregate view reuses the per-kind schema (the aggregate fields
  // are the sums by construction).
  EngineKindStats total;
  total.submitted = stats.submitted;
  total.cache_hits = stats.cache_hits;
  total.jobs_computed = stats.jobs_computed;
  total.replicas_run = stats.replicas_run;
  total.store_hits = stats.store_hits;
  total.store_writes = stats.store_writes;
  total.activity_memo_hits = stats.activity_memo_hits;
  total.activity_memo_misses = stats.activity_memo_misses;
  total.values_memo_hits = stats.values_memo_hits;
  total.values_memo_misses = stats.values_memo_misses;
  total.normals_memo_hits = stats.normals_memo_hits;
  total.normals_memo_misses = stats.normals_memo_misses;
  total.rank_memo_hits = stats.rank_memo_hits;
  total.rank_memo_misses = stats.rank_memo_misses;
  total.compute_seconds = stats.compute_seconds;
  total.queue_wait_seconds = stats.queue_wait_seconds;
  total.reduce_seconds = stats.reduce_seconds;
  total.store_read_seconds = stats.store_read_seconds;
  total.store_write_seconds = stats.store_write_seconds;

  JsonValue out = kind_stats_json(total);
  JsonValue by_kind = analysis::JsonValue::object();
  for (const auto kind : kAllScenarioKinds) {
    by_kind.set(name(kind), kind_stats_json(stats.of(kind)));
  }
  JsonValue doc = JsonValue::object();
  doc.set("workers", JsonValue::integer(workers));
  // Splice the aggregate fields after "workers", then the breakdown.
  for (const std::string& key : out.keys()) {
    doc.set(key, *out.find(key));
  }
  doc.set("values_memo_bytes",
          JsonValue::integer(static_cast<long long>(stats.values_memo_bytes)));
  doc.set("by_kind", std::move(by_kind));
  return doc;
}

}  // namespace gpupower::core
