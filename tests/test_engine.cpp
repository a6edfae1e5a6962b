#include "core/engine.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/activity_memo.hpp"
#include "core/config_builder.hpp"
#include "core/figures.hpp"
#include "core/store/result_store.hpp"
#include "gpusim/dvfs/timeline.hpp"

namespace gpupower::core {
namespace {

ExperimentConfig small_config(gpupower::numeric::DType dtype =
                                  gpupower::numeric::DType::kFP16) {
  ExperimentConfig config;
  config.dtype = dtype;
  config.n = 64;
  config.seeds = 2;
  config.sampling = gpupower::gpusim::SamplingPlan::fast(6, 0.5);
  config.pattern = baseline_gaussian_spec();
  return config;
}

EngineOptions four_workers() {
  EngineOptions options;
  options.workers = 4;
  return options;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.power_w, b.power_w);
  EXPECT_DOUBLE_EQ(a.power_std_w, b.power_std_w);
  EXPECT_DOUBLE_EQ(a.iteration_s, b.iteration_s);
  EXPECT_DOUBLE_EQ(a.energy_per_iter_j, b.energy_per_iter_j);
  EXPECT_DOUBLE_EQ(a.alignment, b.alignment);
  EXPECT_DOUBLE_EQ(a.weight_fraction, b.weight_fraction);
  EXPECT_DOUBLE_EQ(a.rails.fetch_w, b.rails.fetch_w);
  EXPECT_DOUBLE_EQ(a.rails.operand_w, b.rails.operand_w);
  EXPECT_DOUBLE_EQ(a.rails.multiply_w, b.rails.multiply_w);
  EXPECT_DOUBLE_EQ(a.rails.accum_w, b.rails.accum_w);
  EXPECT_DOUBLE_EQ(a.rails.issue_w, b.rails.issue_w);
  EXPECT_EQ(a.throttled, b.throttled);
  EXPECT_DOUBLE_EQ(a.clock_frac, b.clock_frac);
  EXPECT_EQ(a.seeds, b.seeds);
}

/// The serial reference every engine result is pinned to.
ExperimentResult serial(const ExperimentConfig& config) {
  return run_scenario(config).static_result();
}

const ExperimentResult& result_of(const ScenarioHandle& handle) {
  return handle.get().static_result();
}

/// Submits every point of a figure's sweep over `base`, in sweep order.
std::vector<ScenarioHandle> submit_figure(ExperimentEngine& engine,
                                          FigureId id,
                                          const ExperimentConfig& base) {
  std::vector<ScenarioHandle> handles;
  for (const SweepPoint& point : figure_sweep(id)) {
    ExperimentConfig config = base;
    config.pattern = point.spec;
    handles.push_back(engine.submit(config));
  }
  return handles;
}

// The acceptance criterion: a full-figure sweep through the engine with >=4
// worker threads is bit-identical to the serial run_scenario path.
TEST(ExperimentEngine, FullFigureSweepMatchesSerialBitwise) {
  ExperimentEngine engine(four_workers());
  ASSERT_GE(engine.workers(), 4);

  const ExperimentConfig base = small_config();
  const auto handles =
      submit_figure(engine, FigureId::kFig6aSparsity, base);
  engine.wait_all();

  const auto points = figure_sweep(FigureId::kFig6aSparsity);
  ASSERT_EQ(handles.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ExperimentConfig config = base;
    config.pattern = points[i].spec;
    expect_identical(result_of(handles[i]), serial(config));
  }
}

// Seed replicas fan across threads; the reduction must still fold them in
// seed order.  More seeds than workers forces interleaving.
TEST(ExperimentEngine, ManySeedsMatchSerialBitwise) {
  ExperimentEngine engine(four_workers());
  ExperimentConfig config = small_config();
  config.seeds = 7;
  expect_identical(result_of(engine.submit(config)), serial(config));
}

TEST(ExperimentEngine, WorkerCountDoesNotChangeResults) {
  EngineOptions one;
  one.workers = 1;
  ExperimentEngine serial_engine(one);
  ExperimentEngine parallel_engine(four_workers());
  const ExperimentConfig config = small_config();
  expect_identical(result_of(serial_engine.submit(config)),
                   result_of(parallel_engine.submit(config)));
}

// The acceptance criterion: resubmitting the same sweep point reports a
// cache hit.
TEST(ExperimentEngine, DuplicateSubmitHitsCache) {
  ExperimentEngine engine(four_workers());
  const ExperimentConfig config = small_config();

  const ScenarioHandle first = engine.submit(config);
  const ScenarioHandle second = engine.submit(config);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.jobs_computed, 1u);
  EXPECT_GE(stats.cache_hits, 1u);
  expect_identical(result_of(first), result_of(second));
}

TEST(ExperimentEngine, DuplicatedSweepIsComputedOnce) {
  ExperimentEngine engine(four_workers());
  const ExperimentConfig base = small_config();

  const auto first = submit_figure(engine, FigureId::kFig3cValueSet, base);
  const auto second = submit_figure(engine, FigureId::kFig3cValueSet, base);
  engine.wait_all();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2 * first.size());
  EXPECT_EQ(stats.jobs_computed, first.size());
  EXPECT_EQ(stats.cache_hits, second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_identical(result_of(first[i]), result_of(second[i]));
  }
}

TEST(ExperimentEngine, DistinctConfigsMissCache) {
  ExperimentEngine engine(four_workers());
  ExperimentConfig config = small_config();
  (void)engine.submit(config);
  config.base_seed = 1234;
  (void)engine.submit(config);
  config.n = 128;
  (void)engine.submit(config);
  config.dtype = gpupower::numeric::DType::kINT8;
  (void)engine.submit(config);
  engine.wait_all();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.jobs_computed, 4u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(ExperimentEngine, CacheCanBeDisabled) {
  EngineOptions options = four_workers();
  options.cache_enabled = false;
  ExperimentEngine engine(options);
  const ExperimentConfig config = small_config();
  const ScenarioHandle first = engine.submit(config);
  const ScenarioHandle second = engine.submit(config);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_computed, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  // Still bit-identical: independent computations of the same config.
  expect_identical(result_of(first), result_of(second));
}

TEST(ExperimentEngine, ClearCacheForcesRecompute) {
  ExperimentEngine engine(four_workers());
  const ExperimentConfig config = small_config();
  const ScenarioHandle first = engine.submit(config);
  engine.clear_cache();
  const ScenarioHandle second = engine.submit(config);
  EXPECT_EQ(engine.stats().jobs_computed, 2u);
  expect_identical(result_of(first), result_of(second));
}

TEST(ExperimentEngine, WaitAllCompletesEverything) {
  ExperimentEngine engine(four_workers());
  std::vector<ScenarioHandle> handles;
  for (const auto dtype : gpupower::numeric::kAllDTypes) {
    handles.push_back(engine.submit(small_config(dtype)));
  }
  engine.wait_all();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_TRUE(handles[i].ready());
    EXPECT_EQ(handles[i].config().static_config().dtype,
              gpupower::numeric::kAllDTypes[i]);
    EXPECT_GT(result_of(handles[i]).power_w, 0.0);
  }
  EXPECT_EQ(engine.stats().replicas_run, 4u * 2u);
}

TEST(ExperimentEngine, RejectsZeroSeedConfig) {
  // A zero-seed job used to "complete" instantly with an all-zero result;
  // it must be rejected loudly instead.
  ExperimentEngine engine(four_workers());
  ExperimentConfig config = small_config();
  config.seeds = 0;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);
  config.seeds = -1;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);
  engine.wait_all();  // nothing outstanding; must not hang
}

TEST(ScenarioHandle, InvalidHandleThrowsInsteadOfUB) {
  // A default-constructed handle has no job; get()/ready()/config()/kind()
  // must throw instead of dereferencing null.
  ScenarioHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_THROW((void)handle.get(), std::logic_error);
  EXPECT_THROW((void)handle.ready(), std::logic_error);
  EXPECT_THROW((void)handle.config(), std::logic_error);
  EXPECT_THROW((void)handle.kind(), std::logic_error);

  // A real handle stays valid after copies.
  ExperimentEngine engine(four_workers());
  const ScenarioHandle live = engine.submit(small_config());
  const ScenarioHandle copy = live;
  engine.wait_all();
  EXPECT_TRUE(copy.valid());
  EXPECT_TRUE(copy.ready());
  EXPECT_EQ(copy.kind(), ScenarioKind::kStatic);
  EXPECT_GT(result_of(copy).power_w, 0.0);
}

TEST(ExperimentEngine, EngineOutlivesManySubmissions) {
  // Stress the queue with more jobs than workers to exercise interleaving.
  ExperimentEngine engine(four_workers());
  std::vector<ScenarioHandle> handles;
  for (int i = 0; i < 12; ++i) {
    ExperimentConfig config = small_config();
    config.base_seed = static_cast<std::uint64_t>(i);
    handles.push_back(engine.submit(config));
  }
  engine.wait_all();
  for (const auto& handle : handles) EXPECT_TRUE(handle.ready());
  EXPECT_EQ(engine.stats().jobs_computed, 12u);
}

// --- the activity memo ------------------------------------------------------

/// One working point (pattern, dtype, n, base_seed, sampling) at 3 seeds.
ExperimentConfig memo_working_point() {
  ExperimentConfig config = small_config();
  config.n = 128;
  config.seeds = 3;
  config.base_seed = 7;
  return config;
}

DvfsConfig memo_dvfs(const ExperimentConfig& experiment) {
  DvfsConfig config;
  config.experiment = experiment;
  config.timeline =
      gpupower::gpusim::dvfs::parse_timeline(
          "burst(period=0.1, duty=30%, high=1, low=10%, dur=0.3)")
          .timeline;
  return config;
}

/// Two devices of different models, capped: neither the GPU nor the cap
/// enters the activity walk.
FleetConfig memo_fleet(const ExperimentConfig& experiment, double cap_w) {
  const DvfsConfig dvfs_config = memo_dvfs(experiment);
  FleetConfig config;
  config.experiment = experiment;
  config.timelines = {dvfs_config.timeline};
  for (const auto gpu : {gpupower::gpusim::GpuModel::kA100PCIe,
                         gpupower::gpusim::GpuModel::kH100SXM}) {
    FleetDeviceConfig device;
    device.gpu = gpu;
    config.devices.push_back(device);
  }
  config.allocator.cap_w = cap_w;
  return config;
}

/// The static, dvfs and fleet scenarios of one working point.
std::vector<ScenarioConfig> memo_scenarios() {
  const ExperimentConfig experiment = memo_working_point();
  return {ScenarioConfig(experiment), ScenarioConfig(memo_dvfs(experiment)),
          ScenarioConfig(memo_fleet(experiment, 500.0))};
}

std::string result_bytes(const ScenarioResult& result) {
  return scenario_result_to_json(result).dump();
}

TEST(ActivityMemo, KindsShareOneWalkPerSeedAndMatchSerialBytes) {
  ExperimentEngine engine(four_workers());
  const std::vector<ScenarioConfig> configs = memo_scenarios();
  std::vector<ScenarioHandle> handles;
  for (const ScenarioConfig& config : configs) {
    handles.push_back(engine.submit(config));
  }
  engine.wait_all();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(result_bytes(handles[i].get()),
              result_bytes(run_scenario(configs[i])))
        << name(configs[i].kind());
  }
  // 3 kinds x 3 seeds of one working point: one walk per seed.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.activity_memo_misses, 3u);
  EXPECT_EQ(stats.activity_memo_hits, 6u);
  for (const auto kind : kAllScenarioKinds) {
    EXPECT_EQ(stats.of(kind).activity_memo_hits +
                  stats.of(kind).activity_memo_misses,
              3u)
        << name(kind);
  }
  const analysis::JsonValue json = engine_stats_json(stats, engine.workers());
  EXPECT_EQ(json.find("activity_memo_misses")->as_number(), 3.0);
  EXPECT_EQ(json.find("activity_memo_hits")->as_number(), 6.0);
  EXPECT_EQ(engine_stats_line(engine).find("memo"), std::string::npos);
}

TEST(ActivityMemo, DtypeAndSamplingPlanAreSeparateWorkingPoints) {
  // Same pattern, n and seeds; each dtype and each sampling plan walks
  // its own activity.
  ExperimentEngine engine(four_workers());
  std::vector<ScenarioConfig> configs;
  for (const auto dtype : gpupower::numeric::kAllDTypes) {
    for (const std::size_t tiles : {std::size_t{4}, std::size_t{6}}) {
      ExperimentConfig config = small_config(dtype);
      config.sampling.max_tiles = tiles;
      configs.emplace_back(config);
    }
  }
  std::vector<ScenarioHandle> handles;
  for (const ScenarioConfig& config : configs) {
    handles.push_back(engine.submit(config));
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(result_bytes(handles[i].get()),
              result_bytes(run_scenario(configs[i])));
  }
  EXPECT_EQ(engine.stats().activity_memo_misses, configs.size() * 2);
  EXPECT_EQ(engine.stats().activity_memo_hits, 0u);
}

TEST(ActivityMemo, CachelessEngineBypassesTheMemo) {
  EngineOptions options = four_workers();
  options.cache_enabled = false;
  ExperimentEngine engine(options);
  const std::vector<ScenarioConfig> configs = memo_scenarios();
  for (const ScenarioConfig& config : configs) {
    EXPECT_EQ(result_bytes(engine.submit(config).get()),
              result_bytes(run_scenario(config)));
  }
  EXPECT_EQ(engine.stats().activity_memo_hits, 0u);
  EXPECT_EQ(engine.stats().activity_memo_misses, 0u);
}

TEST(ActivityMemo, ConcurrentDuplicatesWalkEachKeyOnce) {
  // 8 scenarios with distinct cache keys (the cap differs) but one working
  // point, submitted together from 8 threads: every replica asks for the
  // same 2 keys at once, and in-flight sharing must keep it to 2 walks.
  ExperimentEngine engine(four_workers());
  ExperimentConfig experiment = memo_working_point();
  experiment.n = 256;
  experiment.seeds = 2;
  std::vector<ScenarioConfig> configs;
  for (int i = 0; i < 8; ++i) {
    configs.emplace_back(memo_fleet(experiment, 300.0 + 25.0 * i));
  }
  std::vector<ScenarioHandle> handles(configs.size());
  std::vector<std::thread> submitters;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    submitters.emplace_back(
        [&, i] { handles[i] = engine.submit(configs[i]); });
  }
  for (std::thread& thread : submitters) thread.join();
  engine.wait_all();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_computed, 8u);
  EXPECT_EQ(stats.replicas_run, 16u);
  EXPECT_EQ(stats.of(ScenarioKind::kFleet).activity_memo_misses, 2u);
  EXPECT_EQ(stats.of(ScenarioKind::kFleet).activity_memo_hits, 14u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(result_bytes(handles[i].get()),
              result_bytes(run_scenario(configs[i])));
  }
}

TEST(ActivityMemo, FillingPastCapacityKeepsResultsIdentical) {
  constexpr std::size_t kCapacity = 4;
  ActivityMemoTable table(kCapacity);
  const ActivityMemo memo(table, ScenarioKind::kStatic);
  const ExperimentConfig config = small_config();
  const gpupower::gpusim::GpuSimulator sim(config.gpu,
                                           replica_sim_options(config, 0));
  const gemm::GemmProblem problem = gemm::GemmProblem::square(config.n);
  const auto same_walk = [&](int seed) {
    const WorkingPointActivity memoised = working_point_activity(
        sim, problem, config, config.pattern, seed, &memo);
    const WorkingPointActivity direct =
        working_point_activity(sim, problem, config, config.pattern, seed);
    return memoised.totals == direct.totals &&
           memoised.alignment == direct.alignment &&
           memoised.weight_fraction == direct.weight_fraction;
  };
  // Three working points past the cap: the oldest three are evicted.
  const int filled = static_cast<int>(kCapacity) + 3;
  for (int seed = 0; seed < filled; ++seed) {
    ASSERT_TRUE(same_walk(seed)) << seed;
  }
  EXPECT_EQ(table.size(), kCapacity);
  EXPECT_EQ(table.misses(ScenarioKind::kStatic),
            static_cast<std::uint64_t>(filled));
  EXPECT_EQ(table.hits(ScenarioKind::kStatic), 0u);
  // The newest entry is held (a hit); the oldest was evicted (a miss).
  EXPECT_TRUE(same_walk(filled - 1));
  EXPECT_EQ(table.hits(ScenarioKind::kStatic), 1u);
  EXPECT_TRUE(same_walk(0));
  EXPECT_EQ(table.misses(ScenarioKind::kStatic),
            static_cast<std::uint64_t>(filled) + 1);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
}

TEST(ActivityMemo, WorkerCountDoesNotChangeBytes) {
  const std::vector<ScenarioConfig> configs = memo_scenarios();
  std::vector<std::string> bytes[2];
  const int workers[2] = {1, 4};
  for (int w = 0; w < 2; ++w) {
    ExperimentEngine engine(EngineOptions::with_workers(workers[w]));
    std::vector<ScenarioHandle> handles;
    for (const ScenarioConfig& config : configs) {
      handles.push_back(engine.submit(config));
    }
    for (const ScenarioHandle& handle : handles) {
      bytes[w].push_back(result_bytes(handle.get()));
    }
    EXPECT_EQ(engine.stats().activity_memo_misses, 3u);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(ActivityMemo, ClearCacheEmptiesTheMemo) {
  ExperimentEngine engine(four_workers());
  const ExperimentConfig config = memo_working_point();
  (void)engine.submit(config).get();
  engine.clear_cache();
  (void)engine.submit(config).get();
  EXPECT_EQ(engine.stats().activity_memo_misses, 6u);
  EXPECT_EQ(engine.stats().activity_memo_hits, 0u);
}

// --- ScenarioHandle::on_ready -----------------------------------------------

/// Counts on_ready calls and remembers the thread of the last one.
struct ReadyProbe {
  std::atomic<int> calls{0};
  std::atomic<bool> on_caller{false};
  std::thread::id caller = std::this_thread::get_id();

  std::function<void()> callback() {
    return [this] {
      on_caller.store(std::this_thread::get_id() == caller);
      calls.fetch_add(1);
    };
  }
};

/// A job that computes for far longer than registering a callback takes
/// (tens of ms on one worker, far more under sanitizers).
ExperimentConfig slow_config(std::uint64_t base_seed) {
  ExperimentConfig config = small_config();
  config.n = 256;
  config.seeds = 4;
  config.base_seed = base_seed;
  return config;
}

TEST(OnReady, FiresImmediatelyForAnAlreadyDoneJob) {
  ExperimentEngine engine(four_workers());
  const ScenarioHandle handle = engine.submit(small_config());
  engine.wait_all();
  ReadyProbe probe;
  handle.on_ready(probe.callback());
  EXPECT_EQ(probe.calls.load(), 1);
  EXPECT_TRUE(probe.on_caller.load());
}

TEST(OnReady, FiresImmediatelyForACacheHit) {
  ExperimentEngine engine(four_workers());
  (void)engine.submit(small_config()).get();
  ExperimentEngine::SubmitOutcome outcome{};
  const ScenarioHandle hit = engine.submit(small_config(), &outcome);
  ASSERT_EQ(outcome, ExperimentEngine::SubmitOutcome::kCacheHit);
  ReadyProbe probe;
  hit.on_ready(probe.callback());
  EXPECT_EQ(probe.calls.load(), 1);
  EXPECT_TRUE(probe.on_caller.load());
}

TEST(OnReady, FiresImmediatelyForAStoreHit) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("gpupower_on_ready_" +
                        std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  EngineOptions options = four_workers();
  options.store = std::make_shared<ResultStore>(StoreOptions{dir.string()});
  {
    ExperimentEngine cold(options);
    (void)cold.submit(small_config());
    cold.wait_all();  // persisted before it returns
  }
  ExperimentEngine warm(options);
  ExperimentEngine::SubmitOutcome outcome{};
  const ScenarioHandle hit = warm.submit(small_config(), &outcome);
  ASSERT_EQ(outcome, ExperimentEngine::SubmitOutcome::kStoreHit);
  ReadyProbe probe;
  hit.on_ready(probe.callback());
  EXPECT_EQ(probe.calls.load(), 1);
  EXPECT_TRUE(probe.on_caller.load());
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(OnReady, FiresOnceOnTheWorkerForAComputedJob) {
  // One worker: the callback is registered while the job computes and the
  // finishing worker runs it.  Should the job ever beat the registration,
  // the call lands on this thread instead; retry with a fresh working
  // point rather than assert on a race.
  ExperimentEngine engine(EngineOptions::with_workers(1));
  bool fired_on_worker = false;
  for (std::uint64_t attempt = 0; attempt < 5 && !fired_on_worker;
       ++attempt) {
    ReadyProbe probe;
    const ScenarioHandle handle = engine.submit(slow_config(100 + attempt));
    handle.on_ready(probe.callback());
    engine.wait_all();
    ASSERT_TRUE(handle.ready());
    EXPECT_EQ(probe.calls.load(), 1);
    fired_on_worker = !probe.on_caller.load();
  }
  EXPECT_TRUE(fired_on_worker);
}

TEST(OnReady, FiresForAJobWhoseReplicaThrows) {
  // A value set larger than any vector can hold passes validation but
  // throws std::length_error inside the replica.  Queued behind a slow job
  // on the only worker, it is still pending when the callback registers.
  ExperimentEngine engine(EngineOptions::with_workers(1));
  (void)engine.submit(slow_config(200));
  ExperimentConfig config = small_config();
  config.pattern.value = PatternSpec::Value::kValueSet;
  config.pattern.set_size = std::numeric_limits<std::size_t>::max() / 2;
  const ScenarioHandle failing = engine.submit(config);
  ReadyProbe probe;
  failing.on_ready(probe.callback());
  engine.wait_all();
  EXPECT_EQ(probe.calls.load(), 1);
  EXPECT_TRUE(failing.ready());
  EXPECT_THROW((void)failing.get(), std::length_error);
}

TEST(OnReady, ConcurrentRegistrationsEachFireExactlyOnce) {
  // Eight threads register while the job finishes: each registration lands
  // either in the worker's callback list or on the done fast path, never
  // both and never neither.
  constexpr int kThreads = 8;
  ExperimentEngine engine(four_workers());
  ExperimentConfig config = small_config();
  config.n = 128;  // still computing while the threads start
  config.base_seed = 300;
  const ScenarioHandle handle = engine.submit(config);
  std::atomic<int> calls[kThreads] = {};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      handle.on_ready([&calls, i] { calls[i].fetch_add(1); });
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  engine.wait_all();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(calls[i].load(), 1) << "thread " << i;
  }
}

TEST(OnReady, InvalidHandleThrows) {
  const ScenarioHandle handle;
  EXPECT_THROW(handle.on_ready([] {}), std::logic_error);
}

}  // namespace
}  // namespace gpupower::core
