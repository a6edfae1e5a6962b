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
  EXPECT_EQ(read_bench_env().workers, 0);
}

TEST(BenchEnvTest, ReadsWorkers) {
  EnvGuard guard;
  setenv("GPUPOWER_WORKERS", "8", 1);
  EXPECT_EQ(read_bench_env().workers, 8);
}

// A typo'd knob must fail loudly (one-line error, exit 2), never silently
// misconfigure a run.
using BenchEnvDeathTest = ::testing::Test;

TEST(BenchEnvDeathTest, MalformedWorkersDies) {
  EnvGuard guard;
  setenv("GPUPOWER_WORKERS", "potato", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_WORKERS='potato'");
}

TEST(BenchEnvDeathTest, TrailingJunkDies) {
  EnvGuard guard;
  setenv("GPUPOWER_WORKERS", "4x", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_WORKERS='4x'");
}

TEST(BenchEnvDeathTest, NegativeWorkersDie) {
  EnvGuard guard;
  setenv("GPUPOWER_WORKERS", "-3", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_WORKERS='-3'");
}

TEST(BenchEnvDeathTest, WorkersOutOfRangeDies) {
  EnvGuard guard;
  setenv("GPUPOWER_WORKERS", "10000", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "invalid GPUPOWER_WORKERS='10000'");
}

// The retired experiment knobs: an old script that still sets one must
// not silently run the defaults, whatever the value.
TEST(BenchEnvDeathTest, RetiredNDiesNamingTheSpecField) {
  EnvGuard guard;
  setenv("GPUPOWER_N", "2048", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "GPUPOWER_N is retired: set experiment.n in the spec");
}

TEST(BenchEnvDeathTest, RetiredSeedsDiesNamingTheSpecField) {
  EnvGuard guard;
  setenv("GPUPOWER_SEEDS", "10", 1);
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "GPUPOWER_SEEDS is retired: set experiment.seeds in the spec");
}

TEST(BenchEnvDeathTest, RetiredTilesDiesNamingTheSpecField) {
  EnvGuard guard;
  setenv("GPUPOWER_TILES", "0", 1);
  EXPECT_EXIT(
      (void)read_bench_env(), ::testing::ExitedWithCode(2),
      "GPUPOWER_TILES is retired: set experiment.sampling.tiles in the spec");
}

TEST(BenchEnvDeathTest, RetiredKfracDiesNamingTheSpecField) {
  EnvGuard guard;
  setenv("GPUPOWER_KFRAC", "potato", 1);  // the value is never parsed
  EXPECT_EXIT((void)read_bench_env(), ::testing::ExitedWithCode(2),
              "GPUPOWER_KFRAC is retired: set "
              "experiment.sampling.k_fraction in the spec");
}

TEST(BenchEnvTest, WorkersFlagValidatorMatchesTheVariable) {
  int workers = -1;
  EXPECT_TRUE(parse_workers("0", workers));
  EXPECT_EQ(workers, 0);
  EXPECT_TRUE(parse_workers("256", workers));
  EXPECT_EQ(workers, 256);
  EXPECT_FALSE(parse_workers("257", workers));
  EXPECT_FALSE(parse_workers("3x", workers));
  EXPECT_FALSE(parse_workers("", workers));
  EXPECT_FALSE(parse_workers(nullptr, workers));
  EXPECT_EQ(workers, 256);  // failures leave the value unchanged
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

}  // namespace
}  // namespace gpupower::core
