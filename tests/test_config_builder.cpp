#include "core/config_builder.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/figures.hpp"
#include "core/pattern_dsl.hpp"

namespace gpupower::core {
namespace {

TEST(ConfigBuilder, FluentSettersLand) {
  const auto config = ExperimentConfigBuilder()
                          .gpu(gpupower::gpusim::GpuModel::kH100SXM)
                          .dtype(gpupower::numeric::DType::kINT8)
                          .n(256)
                          .seeds(5)
                          .iterations(1234)
                          .base_seed(99)
                          .pattern(baseline_gaussian_spec())
                          .build();
  EXPECT_EQ(config.gpu, gpupower::gpusim::GpuModel::kH100SXM);
  EXPECT_EQ(config.dtype, gpupower::numeric::DType::kINT8);
  EXPECT_EQ(config.n, 256u);
  EXPECT_EQ(config.seeds, 5);
  EXPECT_EQ(config.iterations, 1234u);
  EXPECT_EQ(config.base_seed, 99u);
}

TEST(ConfigBuilder, DefaultsMatchExperimentConfig) {
  const ExperimentConfigBuilder builder;
  EXPECT_TRUE(builder.valid());
  const auto config = builder.build();
  const ExperimentConfig reference;
  EXPECT_EQ(config.n, reference.n);
  EXPECT_EQ(config.seeds, reference.seeds);
  EXPECT_EQ(config.dtype, reference.dtype);
}

TEST(ConfigBuilder, DtypeByName) {
  const auto builder = ExperimentConfigBuilder().dtype("fp16t");
  EXPECT_TRUE(builder.valid());
  EXPECT_EQ(builder.build().dtype, gpupower::numeric::DType::kFP16T);
}

TEST(ConfigBuilder, UnknownDtypeNameIsError) {
  const auto builder = ExperimentConfigBuilder().dtype("fp64");
  EXPECT_FALSE(builder.valid());
  EXPECT_NE(builder.error().find("fp64"), std::string::npos);
  EXPECT_EQ(builder.try_build(), std::nullopt);
}

// The DSL wiring: a pattern given as a string parses into the config, and
// the canonical serialisation round-trips.
TEST(ConfigBuilder, DslPatternRoundTrips) {
  const std::string dsl = "gaussian(sigma=210) | sort_rows(40%) | sparsity(25%)";
  const auto builder = ExperimentConfigBuilder().pattern(dsl);
  ASSERT_TRUE(builder.valid()) << builder.error();
  const PatternSpec& spec = builder.build().pattern;
  EXPECT_EQ(spec.place, PatternSpec::Place::kSortRows);
  EXPECT_DOUBLE_EQ(spec.sort_percent, 40.0);
  EXPECT_DOUBLE_EQ(spec.sparsity, 0.25);

  // parse(to_dsl(spec)) == spec — the canonical round-trip property.
  const std::string canonical = to_dsl(spec);
  const ParseResult reparsed = parse_pattern(canonical);
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  EXPECT_EQ(to_dsl(reparsed.spec), canonical);
}

TEST(ConfigBuilder, BadDslReportsOffsetAndMessage) {
  const auto builder = ExperimentConfigBuilder().pattern("gaussian(sigma=");
  EXPECT_FALSE(builder.valid());
  EXPECT_NE(builder.error().find("pattern DSL error at offset"),
            std::string::npos);
  EXPECT_EQ(builder.try_build(), std::nullopt);
}

TEST(ConfigBuilder, OutOfRangeNIsError) {
  EXPECT_FALSE(ExperimentConfigBuilder().n(8).valid());
  EXPECT_FALSE(ExperimentConfigBuilder().n(1 << 20).valid());
  EXPECT_TRUE(ExperimentConfigBuilder().n(64).valid());
}

TEST(ConfigBuilder, OutOfRangeSeedsIsError) {
  EXPECT_FALSE(ExperimentConfigBuilder().seeds(0).valid());
  EXPECT_FALSE(ExperimentConfigBuilder().seeds(-2).valid());
  EXPECT_FALSE(ExperimentConfigBuilder().seeds(100000).valid());
  EXPECT_TRUE(ExperimentConfigBuilder().seeds(10).valid());
}

TEST(ConfigBuilder, BadSamplingPlanIsError) {
  gpupower::gpusim::SamplingPlan plan;
  plan.k_fraction = 0.0;
  EXPECT_FALSE(ExperimentConfigBuilder().sampling(plan).valid());
  plan.k_fraction = 2.0;
  EXPECT_FALSE(ExperimentConfigBuilder().sampling(plan).valid());
}

// A setter's parse error is the root cause; range problems come from the
// one validator, in its field order.
TEST(ConfigBuilder, ParseErrorWinsOverRangeErrors) {
  const auto builder =
      ExperimentConfigBuilder().seeds(0).dtype("nonsense").n(1);
  EXPECT_FALSE(builder.valid());
  EXPECT_NE(builder.error().find("'nonsense'"), std::string::npos);
  EXPECT_NE(ExperimentConfigBuilder().seeds(0).error().find("seeds=0"),
            std::string::npos);
}

TEST(FleetConfigBuilder, StaggeredDevicesShiftTimelinesAndShareOneGovernor) {
  namespace dvfs = gpupower::gpusim::dvfs;
  const dvfs::WorkloadTimeline burst =
      dvfs::parse_timeline("burst(period=0.4, duty=35%, dur=2)").timeline;
  FleetConfigBuilder builder;
  builder.add_staggered_devices(burst, 3, 0.1,
                                gpupower::gpusim::GpuModel::kH100SXM,
                                "utilization(up=70%, down=30%)");
  ASSERT_TRUE(builder.error().empty()) << builder.error();
  const FleetConfig config = std::move(builder).build();
  ASSERT_EQ(config.devices.size(), 3u);
  ASSERT_EQ(config.timelines.size(), 3u);
  const dvfs::GovernorConfig governor =
      dvfs::parse_governor("utilization(up=70%, down=30%)").config;
  for (int i = 0; i < 3; ++i) {
    const FleetDeviceConfig& device = config.devices[static_cast<std::size_t>(i)];
    EXPECT_EQ(device.gpu, gpupower::gpusim::GpuModel::kH100SXM);
    EXPECT_EQ(device.timeline, i);
    EXPECT_EQ(device.priority, 3 - i);
    EXPECT_EQ(device.governor.boost_util, governor.boost_util);
    EXPECT_EQ(device.governor.low_util, governor.low_util);
    // Device i idles i * 0.1 s, then replays the burst.
    dvfs::WorkloadTimeline expected;
    if (i > 0) expected = dvfs::WorkloadTimeline::idle(0.1 * i);
    expected.append(burst);
    const auto& phases = config.timelines[static_cast<std::size_t>(i)].phases();
    ASSERT_EQ(phases.size(), expected.phases().size());
    for (std::size_t p = 0; p < phases.size(); ++p) {
      EXPECT_EQ(phases[p].duration_s, expected.phases()[p].duration_s);
      EXPECT_EQ(phases[p].utilization, expected.phases()[p].utilization);
    }
  }

  FleetConfigBuilder bad;
  bad.add_staggered_devices(burst, 2, 0.1,
                            gpupower::gpusim::GpuModel::kA100PCIe, "turbo()");
  EXPECT_NE(bad.error().find("governor DSL error at offset"),
            std::string::npos)
      << bad.error();
}

}  // namespace
}  // namespace gpupower::core
