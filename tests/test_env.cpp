#include "core/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace gpupower::core {
namespace {

class EnvGuard {
 public:
  ~EnvGuard() {
    unsetenv("GPUPOWER_N");
    unsetenv("GPUPOWER_SEEDS");
    unsetenv("GPUPOWER_TILES");
    unsetenv("GPUPOWER_KFRAC");
    unsetenv("GPUPOWER_WORKERS");
  }
};

TEST(BenchEnvTest, Defaults) {
  EnvGuard guard;
  const BenchEnv env = read_bench_env();
  EXPECT_EQ(env.n, 512u);
  EXPECT_EQ(env.seeds, 2);
  EXPECT_EQ(env.tiles, 12u);
  EXPECT_DOUBLE_EQ(env.k_fraction, 0.5);
  EXPECT_EQ(env.workers, 0);
}

TEST(BenchEnvTest, ReadsOverrides) {
  EnvGuard guard;
  setenv("GPUPOWER_N", "2048", 1);
  setenv("GPUPOWER_SEEDS", "10", 1);
  setenv("GPUPOWER_TILES", "0", 1);
  setenv("GPUPOWER_KFRAC", "1.0", 1);
  setenv("GPUPOWER_WORKERS", "8", 1);
  const BenchEnv env = read_bench_env();
  EXPECT_EQ(env.n, 2048u);
  EXPECT_EQ(env.seeds, 10);
  EXPECT_EQ(env.tiles, 0u);  // 0 = exact walk
  EXPECT_DOUBLE_EQ(env.k_fraction, 1.0);
  EXPECT_EQ(env.workers, 8);
}

// A typo'd knob must fail loudly (one-line error, exit 2), never silently
// misconfigure a run.
using BenchEnvDeathTest = ::testing::Test;

TEST(BenchEnvDeathTest, MalformedNDies) {
  EnvGuard guard;
  setenv("GPUPOWER_N", "potato", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_N='potato'");
}

TEST(BenchEnvDeathTest, OutOfRangeNDies) {
  EnvGuard guard;
  setenv("GPUPOWER_N", "8", 1);  // below the N=64 floor
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_N='8'");
}

TEST(BenchEnvDeathTest, NegativeSeedsDie) {
  EnvGuard guard;
  setenv("GPUPOWER_SEEDS", "-3", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_SEEDS='-3'");
}

TEST(BenchEnvDeathTest, ZeroKfracDies) {
  EnvGuard guard;
  setenv("GPUPOWER_KFRAC", "0", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_KFRAC='0'");
}

TEST(BenchEnvDeathTest, KfracAboveOneDies) {
  EnvGuard guard;
  setenv("GPUPOWER_KFRAC", "1.5", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_KFRAC='1.5'");
}

TEST(BenchEnvDeathTest, TrailingJunkDies) {
  EnvGuard guard;
  setenv("GPUPOWER_SEEDS", "4x", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_SEEDS='4x'");
}

TEST(BenchEnvDeathTest, WorkersOutOfRangeDies) {
  EnvGuard guard;
  setenv("GPUPOWER_WORKERS", "10000", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_WORKERS='10000'");
}

// --- the result-store knobs (GPUPOWER_STORE_DIR / GPUPOWER_STORE) --------

class StoreEnvGuard {
 public:
  ~StoreEnvGuard() {
    unsetenv("GPUPOWER_STORE_DIR");
    unsetenv("GPUPOWER_STORE");
  }
};

TEST(StoreEnvTest, DisabledByDefault) {
  StoreEnvGuard guard;
  const StoreEnv env = read_store_env();
  EXPECT_FALSE(env.enabled);
  EXPECT_TRUE(env.dir.empty());
}

TEST(StoreEnvTest, DirAloneEnables) {
  StoreEnvGuard guard;
  setenv("GPUPOWER_STORE_DIR", "/tmp/gpupower_store_env_test", 1);
  const StoreEnv env = read_store_env();
  EXPECT_TRUE(env.enabled);
  EXPECT_EQ(env.dir, "/tmp/gpupower_store_env_test");
}

TEST(StoreEnvTest, ExplicitOffWinsOverDir) {
  StoreEnvGuard guard;
  setenv("GPUPOWER_STORE_DIR", "/tmp/gpupower_store_env_test", 1);
  setenv("GPUPOWER_STORE", "off", 1);
  EXPECT_FALSE(read_store_env().enabled);
}

TEST(BenchEnvDeathTest, MalformedStoreDies) {
  StoreEnvGuard guard;
  setenv("GPUPOWER_STORE", "maybe", 1);
  EXPECT_EXIT((void)read_store_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_STORE='maybe'");
}

TEST(BenchEnvDeathTest, StoreOnWithoutDirDies) {
  StoreEnvGuard guard;
  setenv("GPUPOWER_STORE", "on", 1);
  EXPECT_EXIT((void)read_store_env(), ::testing::ExitedWithCode(2),
              "GPUPOWER_STORE_DIR");
}

// --- the observability knobs (GPUPOWER_TRACE / GPUPOWER_METRICS) ---------

class ObsEnvGuard {
 public:
  ~ObsEnvGuard() {
    unsetenv("GPUPOWER_TRACE");
    unsetenv("GPUPOWER_METRICS");
  }
};

TEST(ObsEnvTest, UnsetMeansNoTraceAndMetricsUntouched) {
  ObsEnvGuard guard;
  const ObsEnv env = read_obs_env();
  EXPECT_TRUE(env.trace_path.empty());
  EXPECT_FALSE(env.metrics_set);
}

TEST(ObsEnvTest, TracePathIsCopiedVerbatim) {
  ObsEnvGuard guard;
  setenv("GPUPOWER_TRACE", "/tmp/gpupower_trace_env_test.json", 1);
  const ObsEnv env = read_obs_env();
  EXPECT_EQ(env.trace_path, "/tmp/gpupower_trace_env_test.json");
  EXPECT_FALSE(env.metrics_set);  // trace alone leaves the metrics knob
}

TEST(ObsEnvTest, MetricsOnAndOffAreBothExplicit) {
  ObsEnvGuard guard;
  setenv("GPUPOWER_METRICS", "on", 1);
  ObsEnv env = read_obs_env();
  EXPECT_TRUE(env.metrics_set);
  EXPECT_TRUE(env.metrics);
  setenv("GPUPOWER_METRICS", "off", 1);
  env = read_obs_env();
  EXPECT_TRUE(env.metrics_set);  // explicit off still counts as configured
  EXPECT_FALSE(env.metrics);
}

TEST(BenchEnvDeathTest, MalformedMetricsDies) {
  ObsEnvGuard guard;
  setenv("GPUPOWER_METRICS", "verbose", 1);
  EXPECT_EXIT((void)read_obs_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_METRICS='verbose'");
}

TEST(BenchEnvTest, ApplyConfiguresExperiment) {
  EnvGuard guard;
  setenv("GPUPOWER_N", "256", 1);
  setenv("GPUPOWER_SEEDS", "4", 1);
  setenv("GPUPOWER_TILES", "6", 1);
  const BenchEnv env = read_bench_env();
  ExperimentConfig config;
  env.apply(config);
  EXPECT_EQ(config.n, 256u);
  EXPECT_EQ(config.seeds, 4);
  EXPECT_EQ(config.sampling.max_tiles, 6u);
}

}  // namespace
}  // namespace gpupower::core
