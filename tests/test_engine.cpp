#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/config_builder.hpp"
#include "core/figures.hpp"

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

}  // namespace
}  // namespace gpupower::core
