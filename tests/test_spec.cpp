// The unified scenario API and its JSON spec front end:
//  - spec round-trips: parse(spec_to_json(config)) reproduces the exact
//    canonical cache key for every scenario kind;
//  - malformed specs fail with pointed errors naming the offending key;
//  - campaign grids expand the cross product and patch arbitrary dotted
//    fields;
//  - engine submits of every kind are bit-identical to the serial
//    run_scenario reference;
//  - EngineStats breaks the counters down by scenario kind.
#include "core/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_builder.hpp"
#include "core/engine.hpp"
#include "core/scenario.hpp"

namespace gpupower::core {
namespace {

ExperimentConfig small_experiment() {
  return ExperimentConfigBuilder()
      .dtype("fp16")
      .n(64)
      .seeds(2)
      .sampling(gpupower::gpusim::SamplingPlan::fast(6, 0.5))
      .pattern("gaussian(sigma=210) | sparsity(25%)")
      .build();
}

DvfsConfig small_dvfs() {
  return DvfsConfigBuilder()
      .experiment(small_experiment())
      .governor("utilization(up=80%, down=30%)")
      .timeline("burst(period=0.2, duty=30%, high=100%, low=5%, dur=0.5)")
      .slice(0.01)
      .pstates(5)
      .build();
}

FleetConfig small_fleet() {
  gpupower::gpusim::fleet::ThermalConfig thermal;
  thermal.enabled = true;
  return FleetConfigBuilder()
      .experiment(small_experiment())
      .add_timeline("burst(period=0.2, duty=30%, high=100%, low=5%, dur=0.5)")
      .add_device(gpupower::gpusim::GpuModel::kA100PCIe,
                  "utilization(up=70%, down=30%)", 0, 2)
      .add_device(gpupower::gpusim::GpuModel::kH100SXM, "fixed(2)", 0, 1)
      .allocator("priority")
      .cap(417.345678901234567)  // deliberately not %g-representable
      .thermal(thermal)
      .slice(0.01)
      .pstates(5)
      .build();
}

ScenarioConfig round_trip(const ScenarioConfig& config) {
  const std::string text = spec_to_json(config).dump(/*pretty=*/true);
  const SpecParseResult parsed = parse_scenario_spec_text(text);
  EXPECT_TRUE(parsed.ok) << parsed.error << "\nspec was:\n" << text;
  return parsed.spec.config;
}

// --- round-trips -----------------------------------------------------------

TEST(Spec, RoundTripStaticCanonicalKey) {
  ExperimentConfig config = small_experiment();
  gpupower::gpusim::ProcessVariation variation;
  variation.sigma_fraction = 0.03;
  variation.instance = 7;
  variation.per_seed = true;
  config.variation = variation;
  config.base_seed = 1234567;
  const ScenarioConfig original{config};
  EXPECT_EQ(canonical_scenario_key(round_trip(original)),
            canonical_scenario_key(original));
}

TEST(Spec, RoundTripDvfsCanonicalKey) {
  DvfsConfig config = small_dvfs();
  // Values that do not survive 6-significant-digit display rounding: the
  // spec document must carry full precision.
  config.governor.boost_util = 0.123456789012345;
  config.slice_s = 0.0100000000000002;
  const ScenarioConfig original{config};
  EXPECT_EQ(canonical_scenario_key(round_trip(original)),
            canonical_scenario_key(original));
}

TEST(Spec, RoundTripFleetCanonicalKey) {
  const ScenarioConfig original{small_fleet()};
  EXPECT_EQ(canonical_scenario_key(round_trip(original)),
            canonical_scenario_key(original));
}

TEST(Spec, RoundTripDvfsWithPhasePatterns) {
  const DvfsConfig config =
      DvfsConfigBuilder()
          .experiment(small_experiment())
          .timeline("constant(util=80%, dur=0.2, pattern=0) | idle(dur=0.1)")
          .add_phase_pattern("gaussian(sigma=100) | zero_lsb(0.5)")
          .slice(0.01)
          .pstates(3)
          .build();
  const ScenarioConfig original{config};
  EXPECT_EQ(canonical_scenario_key(round_trip(original)),
            canonical_scenario_key(original));
}

// --- pointed errors --------------------------------------------------------

TEST(Spec, UnknownKeyFailsNamingTheKey) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "static",
    "experiment": {"dtype": "fp16", "n": 64, "seeds": 1, "dtyep": "fp32"}
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("'dtyep'"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("experiment"), std::string::npos)
      << parsed.error;
}

TEST(Spec, UnknownTopLevelKeyFails) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "dvfs",
    "timeline": "idle(dur=0.1)",
    "governer": "oracle()"
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("'governer'"), std::string::npos)
      << parsed.error;
}

TEST(Spec, DanglingPhasePatternReferenceFails) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "dvfs",
    "experiment": {"dtype": "fp16", "n": 64, "seeds": 1},
    "timeline": "constant(util=80%, dur=0.2, pattern=1)",
    "phase_patterns": ["gaussian()"]
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("phase pattern"), std::string::npos)
      << parsed.error;
}

TEST(Spec, MissingTimelineFails) {
  const SpecParseResult parsed =
      parse_scenario_spec_text(R"json({"scenario": "dvfs"})json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("timeline"), std::string::npos) << parsed.error;
}

// Integer fields read into an `int` must be range-checked before the
// narrowing cast: 2^32 + 1 seeds used to wrap silently to 1 seed.
TEST(Spec, OutOfRangeIntegersFailNamingTheKey) {
  const std::string big = "4294967297";  // 2^32 + 1
  const std::string dvfs =
      R"json({"scenario": "dvfs", "timeline": "idle(dur=0.1)", )json";
  const std::string fleet =
      R"json({"scenario": "fleet", "timelines": ["idle(dur=0.1)"], )json";
  // {key the error must name, spec text before the value, text after it}
  const struct {
    const char* key;
    std::string head;
    const char* tail;
  } cases[] = {
      {"experiment.seeds",
       R"json({"scenario": "static", "experiment": {"seeds": )json", "}}"},
      {"pstates", dvfs + R"json("pstates": )json", "}"},
      {"governor.fixed_pstate",
       dvfs + R"json("governor": {"fixed_pstate": )json", "}}"},
      {"pstates", fleet + R"json("devices": [{}], "pstates": )json", "}"},
      {"thermal.throttle_pstate",
       fleet + R"json("devices": [{}], "thermal": {"throttle_pstate": )json",
       "}}"},
      {"devices[0].timeline", fleet + R"json("devices": [{"timeline": )json",
       "}]}"},
      {"devices[0].priority", fleet + R"json("devices": [{"priority": -)json",
       "}]}"},
      {"staggered.count",
       R"json({"scenario": "fleet", "staggered": {"timeline": "idle(dur=0.1)",
               "count": )json",
       "}}"},
  };
  for (const auto& c : cases) {
    const std::string spec = c.head + big + c.tail;
    const SpecParseResult parsed = parse_scenario_spec_text(spec);
    ASSERT_FALSE(parsed.ok) << spec;
    EXPECT_NE(parsed.error.find(c.key), std::string::npos) << parsed.error;
    EXPECT_NE(parsed.error.find("out of range"), std::string::npos)
        << parsed.error;
  }
  // 2^32 used to wrap to 0 and fail with a misleading "seeds=0" message.
  const SpecParseResult zero = parse_scenario_spec_text(
      R"json({"scenario": "static", "experiment": {"seeds": 4294967296}})json");
  ASSERT_FALSE(zero.ok);
  EXPECT_NE(zero.error.find("4294967296"), std::string::npos) << zero.error;
}

TEST(Spec, MalformedJsonReportsByteOffset) {
  const SpecParseResult parsed =
      parse_scenario_spec_text(R"json({"scenario": "static",})json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("JSON syntax error"), std::string::npos)
      << parsed.error;
}

TEST(Spec, BadCampaignAxisFieldFailsAtExpansion) {
  // "allocatr" patches an unknown key into the fleet base; the strict
  // per-point parse rejects it, naming both the point and the key.
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {
      "scenario": "fleet",
      "experiment": {"dtype": "fp16", "n": 64, "seeds": 1},
      "timelines": ["idle(dur=0.1)"],
      "devices": [{}]
    },
    "axes": [{"field": "allocatr", "values": ["uniform", "priority"]}]
  })json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<CampaignPoint> points;
  std::string error;
  EXPECT_FALSE(expand_campaign(parsed.spec, points, error));
  EXPECT_NE(error.find("'allocatr'"), std::string::npos) << error;
}

TEST(Spec, EmptyCampaignAxisValuesFail) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {"scenario": "static"},
    "axes": [{"field": "experiment.n", "values": []}]
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("values"), std::string::npos) << parsed.error;
}

TEST(Spec, CampaignCannotSweepScenarioKind) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {"scenario": "static"},
    "axes": [{"field": "scenario", "values": ["static", "dvfs"]}]
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("scenario"), std::string::npos) << parsed.error;
}

// --- campaign expansion ----------------------------------------------------

TEST(Spec, CampaignExpandsCrossProductRowMajor) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {
      "scenario": "static",
      "experiment": {"dtype": "fp16", "n": 64, "seeds": 1}
    },
    "axes": [
      {"field": "experiment.dtype", "values": ["fp16", "int8"]},
      {"field": "experiment.n", "values": [{"value": 64, "label": "n64"},
                                           {"value": 96, "label": "n96"},
                                           {"value": 128, "label": "n128"}]}
    ]
  })json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<CampaignPoint> points;
  std::string error;
  ASSERT_TRUE(expand_campaign(parsed.spec, points, error)) << error;
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].label, "fp16@n64");
  EXPECT_EQ(points[2].label, "fp16@n128");
  EXPECT_EQ(points[3].label, "int8@n64");
  EXPECT_EQ(points[5].label, "int8@n128");
  EXPECT_EQ(points[5].config.experiment().n, 128u);
  EXPECT_EQ(points[5].config.experiment().dtype,
            gpupower::numeric::DType::kINT8);
  // Every grid point is a distinct job.
  EXPECT_NE(canonical_scenario_key(points[0].config),
            canonical_scenario_key(points[1].config));
}

TEST(Spec, CampaignPatchCreatesMissingIntermediateObjects) {
  // The base omits "experiment" entirely; the axis patch creates it.
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {"scenario": "static"},
    "axes": [{"field": "experiment.n", "values": [64, 96]}]
  })json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<CampaignPoint> points;
  std::string error;
  ASSERT_TRUE(expand_campaign(parsed.spec, points, error)) << error;
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].config.experiment().n, 64u);
  EXPECT_EQ(points[1].config.experiment().n, 96u);
}

// --- scenario submission equivalences --------------------------------------

TEST(Scenario, EngineMatchesRunScenarioForEveryKind) {
  ExperimentEngine engine(EngineOptions::with_workers(4));
  for (const ScenarioConfig& config :
       {ScenarioConfig(small_experiment()), ScenarioConfig(small_dvfs()),
        ScenarioConfig(small_fleet())}) {
    const ScenarioHandle handle = engine.submit(config);
    EXPECT_EQ(handle.kind(), config.kind());
    // The store codec serialises every field at round-trip precision, so
    // equal dumps mean bit-identical results, traces included.
    EXPECT_EQ(scenario_result_to_json(handle.get()).dump(),
              scenario_result_to_json(run_scenario(config)).dump())
        << name(config.kind());
  }
}

TEST(Scenario, SubmitRejectsInvalidConfigsViaRegistry) {
  ExperimentEngine engine(EngineOptions::with_workers(2));
  ExperimentConfig config = small_experiment();
  config.seeds = 0;
  EXPECT_THROW((void)engine.submit(ScenarioConfig(config)),
               std::invalid_argument);
  DvfsConfig dvfs;  // default: empty timeline
  dvfs.experiment = small_experiment();
  EXPECT_THROW((void)engine.submit(ScenarioConfig(dvfs)),
               std::invalid_argument);
  engine.wait_all();  // nothing outstanding; must not hang
}

// --- per-kind engine stats --------------------------------------------------

TEST(Engine, StatsBreakDownByScenarioKind) {
  ExperimentEngine engine(EngineOptions::with_workers(4));
  (void)engine.submit(small_experiment());
  (void)engine.submit(small_dvfs());
  FleetConfig fleet = small_fleet();
  fleet.experiment.seeds = 3;
  (void)engine.submit(fleet);
  engine.wait_all();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.of(ScenarioKind::kStatic).submitted, 1u);
  EXPECT_EQ(stats.of(ScenarioKind::kDvfs).submitted, 1u);
  EXPECT_EQ(stats.of(ScenarioKind::kFleet).submitted, 1u);
  EXPECT_EQ(stats.of(ScenarioKind::kStatic).jobs_computed, 1u);
  EXPECT_EQ(stats.of(ScenarioKind::kStatic).replicas_run, 2u);
  EXPECT_EQ(stats.of(ScenarioKind::kDvfs).replicas_run, 2u);
  EXPECT_EQ(stats.of(ScenarioKind::kFleet).replicas_run, 3u);
  // Aggregates stay the sums (compatibility with the historical fields).
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.jobs_computed, 3u);
  EXPECT_EQ(stats.replicas_run, 7u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

// --- scenario registry ------------------------------------------------------

TEST(Scenario, RegistryNamesRoundTrip) {
  for (const auto kind : kAllScenarioKinds) {
    ScenarioKind parsed;
    ASSERT_TRUE(parse_scenario_kind(name(kind), parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_EQ(scenario_kind_info(kind).kind, kind);
  }
  ScenarioKind alias;
  ASSERT_TRUE(parse_scenario_kind("experiment", alias));
  EXPECT_EQ(alias, ScenarioKind::kStatic);
  ScenarioKind unknown;
  EXPECT_FALSE(parse_scenario_kind("warp-drive", unknown));
}

TEST(Scenario, AccessorsThrowOnKindMismatch) {
  const ScenarioConfig config{small_dvfs()};
  EXPECT_EQ(config.kind(), ScenarioKind::kDvfs);
  EXPECT_NO_THROW((void)config.dvfs());
  EXPECT_THROW((void)config.fleet(), std::logic_error);
  EXPECT_THROW((void)config.static_config(), std::logic_error);
  EXPECT_EQ(config.experiment().n, 64u);

  const ScenarioResult empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.static_result(), std::logic_error);
}

}  // namespace
}  // namespace gpupower::core
