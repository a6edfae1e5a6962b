// The unified scenario API and its JSON spec front end:
//  - spec round-trips: parse(spec_to_json(config)) reproduces the exact
//    canonical cache key for every scenario kind;
//  - the canonical key: every significant field changes it, and every
//    normalisation rule keeps it equal only where results are equal;
//  - malformed specs fail with pointed errors naming the offending key;
//  - campaign grids expand the cross product and patch arbitrary dotted
//    fields;
//  - engine submits of every kind are bit-identical to the serial
//    run_scenario reference;
//  - EngineStats breaks the counters down by scenario kind.
#include "core/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_builder.hpp"
#include "core/engine.hpp"
#include "core/figures.hpp"
#include "core/pattern_dsl.hpp"
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
  config.governor.boost_util = 0.823456789012345;
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

// --- the canonical key -----------------------------------------------------

/// `config` with `edit` applied, as a ScenarioConfig.
template <typename Config, typename Edit>
ScenarioConfig edited(Config config, Edit edit) {
  edit(config);
  return ScenarioConfig(std::move(config));
}

struct KeyCase {
  const char* what;
  ScenarioConfig a;
  ScenarioConfig b;
};

// Each pair differs in one field a result depends on, so the keys differ.
std::vector<KeyCase> significant_cases() {
  using gpupower::gpusim::GpuModel;
  using gpupower::gpusim::dvfs::GovernorConfig;
  using gpupower::gpusim::dvfs::parse_timeline;
  using gpupower::gpusim::fleet::AllocatorConfig;
  const ExperimentConfig e = small_experiment();
  const DvfsConfig d = small_dvfs();
  const FleetConfig f = small_fleet();
  const auto pattern = [](const char* dsl) {
    return parse_pattern(dsl).spec;
  };
  return {
      {"gpu", e, edited(e, [](auto& c) { c.gpu = GpuModel::kV100SXM2; })},
      {"dtype", e,
       edited(e, [](auto& c) { c.dtype = gpupower::numeric::DType::kINT8; })},
      {"n", e, edited(e, [](auto& c) { c.n = 96; })},
      {"seeds", e, edited(e, [](auto& c) { c.seeds = 3; })},
      {"iterations", e, edited(e, [](auto& c) { c.iterations = 777; })},
      {"base_seed", e, edited(e, [](auto& c) { c.base_seed = 1; })},
      {"sampling.tiles", e,
       edited(e, [](auto& c) { c.sampling.max_tiles = 7; })},
      {"sampling.k_fraction", e,
       edited(e, [](auto& c) { c.sampling.k_fraction = 0.75; })},
      {"sampling.seed", e, edited(e, [](auto& c) { c.sampling.seed = 9; })},
      {"sampler.period_s", e,
       edited(e, [](auto& c) { c.sampler.period_s = 0.05; })},
      {"sampler.warmup_trim_s", e,
       edited(e, [](auto& c) { c.sampler.warmup_trim_s = 0.25; })},
      {"sampler.ramp_tau_s", e,
       edited(e, [](auto& c) { c.sampler.ramp_tau_s = 0.3; })},
      {"sampler.noise_sigma_w", e,
       edited(e, [](auto& c) { c.sampler.noise_sigma_w = 0.0; })},
      {"variation", e, edited(e, [](auto& c) {
         c.variation = gpupower::gpusim::ProcessVariation{0.05, 7};
       })},
      {"pattern structure", e, edited(e, [&](auto& c) {
         c.pattern = pattern("set(size=4, sigma=210) | sort_rows(40%)");
       })},
      {"pattern sigma", e, edited(e, [](auto& c) { c.pattern.sigma = 64; })},
      // Equal at six significant digits, the old display precision.
      {"pattern past 6 digits",
       edited(e, [](auto& c) { c.pattern.sparsity = 0.1234561; }),
       edited(e, [](auto& c) { c.pattern.sparsity = 0.1234564; })},
      {"pattern transpose", e,
       edited(e, [](auto& c) { c.pattern.transpose_b = false; })},
      {"dvfs pattern", d, edited(d, [&](auto& c) {
         c.experiment.pattern = pattern("gaussian() | zero_lsb(0.5)");
       })},
      {"governor policy", d, edited(d, [](auto& c) {
         c.governor.policy = GovernorConfig::Policy::kOracle;
       })},
      // Governors that share a display form at six significant digits.
      {"governor past 6 digits",
       edited(d, [](auto& c) { c.governor.boost_util = 0.80000004; }),
       edited(d, [](auto& c) { c.governor.boost_util = 0.80000008; })},
      {"governor hold", d,
       edited(d, [](auto& c) { c.governor.low_hold_s = 0.5; })},
      {"timeline", d, edited(d, [&](auto& c) {
         c.timeline = parse_timeline("constant(util=50%, dur=0.5)").timeline;
       })},
      {"phase_patterns", d, edited(d, [](auto& c) {
         c.phase_patterns = {c.experiment.pattern};
       })},
      {"dvfs slice", d, edited(d, [](auto& c) { c.slice_s = 0.02; })},
      {"dvfs pstates", d, edited(d, [](auto& c) { c.pstates = 3; })},
      {"cap", f, edited(f, [](auto& c) { c.allocator.cap_w = 500.0; })},
      {"allocator", f, edited(f, [](auto& c) {
         c.allocator.policy = AllocatorConfig::Policy::kUniform;
       })},
      {"thermal on/off", f,
       edited(f, [](auto& c) { c.thermal.enabled = false; })},
      {"thermal tau", f, edited(f, [](auto& c) { c.thermal.tau_s = 4.0; })},
      {"device priority", f,
       edited(f, [](auto& c) { c.devices[1].priority += 1; })},
      {"device gpu", f,
       edited(f, [](auto& c) { c.devices[1].gpu = GpuModel::kV100SXM2; })},
      {"device governor", f, edited(f, [](auto& c) {
         c.devices[0].governor.boost_util = 0.75;
       })},
      {"fleet timelines", f, edited(f, [&](auto& c) {
         c.timelines[0] = parse_timeline("idle(dur=0.5)").timeline;
       })},
      {"fleet slice", f, edited(f, [](auto& c) { c.slice_s = 0.02; })},
      {"fleet pstates", f, edited(f, [](auto& c) { c.pstates = 3; })},
      {"kind", ScenarioConfig(d.experiment), d},
  };
}

TEST(CanonicalKey, EverySignificantFieldChangesTheKey) {
  for (const KeyCase& c : significant_cases()) {
    EXPECT_NE(canonical_scenario_key(c.a), canonical_scenario_key(c.b))
        << c.what;
  }
}

// Each pair differs only in what a normalisation rule resolves or drops:
// the keys must be equal AND the results byte-identical, which is what
// makes the rule sound.
std::vector<KeyCase> normalised_cases() {
  const ExperimentConfig e = small_experiment();
  const DvfsConfig d = small_dvfs();
  FleetConfig cool = small_fleet();
  cool.thermal.enabled = false;
  const auto default_sigma = [](auto& c) { c.sigma = -1.0; };
  const auto paper_sigma = [](auto& c) { c.sigma = 210.0; };
  const auto sampler_changed = [](auto& c) {
    c.experiment.iterations = 777;
    c.experiment.sampler.noise_sigma_w = 0.0;
    c.experiment.sampler.period_s = 0.05;
  };
  return {
      {"sigma default vs 210",
       edited(e, [&](auto& c) { default_sigma(c.pattern); }),
       edited(e, [&](auto& c) { paper_sigma(c.pattern); })},
      {"sigma default vs 210 (int8)", edited(e, [&](auto& c) {
         c.dtype = gpupower::numeric::DType::kINT8;
         default_sigma(c.pattern);
       }),
       edited(e, [&](auto& c) {
         c.dtype = gpupower::numeric::DType::kINT8;
         paper_sigma(c.pattern);
       })},
      {"iterations 0 vs effective",
       edited(e, [](auto& c) { c.iterations = 0; }),
       edited(e, [](auto& c) { c.iterations = c.effective_iterations(); })},
      // The replica overwrites the sampler seed; no spec field holds it.
      {"sampler seed", e, edited(e, [](auto& c) { c.sampler.seed = 7; })},
      {"dvfs iterations and sampler", d, edited(d, sampler_changed)},
      {"dvfs phase pattern sigma", edited(d, [&](auto& c) {
         c.phase_patterns = {c.experiment.pattern};
         default_sigma(c.phase_patterns[0]);
       }),
       edited(d, [&](auto& c) {
         c.phase_patterns = {c.experiment.pattern};
         paper_sigma(c.phase_patterns[0]);
       })},
      {"fleet iterations and sampler", small_fleet(),
       edited(small_fleet(), sampler_changed)},
      {"disabled thermal parameters", cool, edited(cool, [](auto& c) {
         c.thermal.tau_s = 1.0;
         c.thermal.trip_c = 60.0;
       })},
  };
}

TEST(CanonicalKey, NormalisedDifferencesShareKeyAndResult) {
  for (const KeyCase& c : normalised_cases()) {
    EXPECT_EQ(canonical_scenario_key(c.a), canonical_scenario_key(c.b))
        << c.what;
    EXPECT_EQ(scenario_result_to_json(run_scenario(c.a)).dump(),
              scenario_result_to_json(run_scenario(c.b)).dump())
        << c.what;
  }
}

TEST(CanonicalKey, IsKindPrefixedCompactSpecJson) {
  const std::string key = canonical_scenario_key(small_experiment());
  ASSERT_EQ(key.rfind("static\x1f{", 0), 0u) << key;
  EXPECT_TRUE(analysis::json_parse(key.substr(7)).ok) << key;
}

// A burst DSL can realise millions of phases; past 64 the key carries a
// digest, not the phase list.
TEST(CanonicalKey, LongTimelinesKeyAsDigest) {
  using gpupower::gpusim::dvfs::parse_timeline;
  DvfsConfig config = small_dvfs();
  config.timeline =
      parse_timeline("burst(period=0.01, duty=50%, dur=20)").timeline;
  ASSERT_GT(config.timeline.phases().size(), 64u);
  const std::string key = canonical_scenario_key(config);
  EXPECT_LT(key.size(), 4096u);
  DvfsConfig other = config;
  other.timeline =
      parse_timeline("burst(period=0.01, duty=40%, dur=20)").timeline;
  EXPECT_NE(canonical_scenario_key(other), key);
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
  // Unsigned fields: a negative value fails as written instead of wrapping
  // to ~2^64, and tiles share kMaxTiles's [0, 1000000] range.
  const struct {
    const char* key;
    const char* experiment;
    const char* written;
  } unsigned_cases[] = {
      {"experiment.n", R"json({"n": -5})json", "-5"},
      {"experiment.iterations", R"json({"iterations": -1})json", "-1"},
      {"experiment.sampling.tiles", R"json({"sampling": {"tiles": -1}})json",
       "-1"},
      {"sampling.tiles", R"json({"sampling": {"tiles": 100000000000}})json",
       "100000000000"},
  };
  for (const auto& c : unsigned_cases) {
    const std::string spec = std::string(R"json({"scenario": "static", )json") +
                             R"json("experiment": )json" + c.experiment + "}";
    const SpecParseResult parsed = parse_scenario_spec_text(spec);
    ASSERT_FALSE(parsed.ok) << spec;
    EXPECT_NE(parsed.error.find(c.key), std::string::npos) << parsed.error;
    EXPECT_NE(parsed.error.find(std::string(c.written) + " out of range"),
              std::string::npos)
        << parsed.error;
  }
  // 2^32 used to wrap to 0 and fail with a misleading "seeds=0" message.
  const SpecParseResult zero = parse_scenario_spec_text(
      R"json({"scenario": "static", "experiment": {"seeds": 4294967296}})json");
  ASSERT_FALSE(zero.ok);
  EXPECT_NE(zero.error.find("4294967296"), std::string::npos) << zero.error;
}

// strtod reads 1e999 as +inf and -1e999 as -inf, and the key prints both as
// JSON null: a spec carrying either would share its key with the other.
TEST(Spec, NonFiniteNumbersFailNamingTheKey) {
  const std::string dvfs =
      R"json({"scenario": "dvfs", "timeline": "idle(dur=0.1)", )json";
  const std::string fleet =
      R"json({"scenario": "fleet", "timelines": ["idle(dur=0.1)"], )json";
  const struct {
    const char* key;
    std::string head;
    const char* tail;
  } cases[] = {
      {"governor.boost_util", dvfs + R"json("governor": {"boost_util": )json",
       "}}"},
      {"thermal.ambient_c",
       fleet + R"json("devices": [{}], "thermal": {"ambient_c": )json", "}}"},
      {"experiment.sampler.ramp_tau_s",
       R"json({"scenario": "static", "experiment": {"sampler":
               {"ramp_tau_s": )json",
       "}}}"},
      {"experiment.variation.sigma_fraction",
       R"json({"scenario": "static", "experiment": {"variation":
               {"sigma_fraction": )json",
       "}}}"},
      {"cap_w", fleet + R"json("devices": [{}], "cap_w": )json", "}"},
  };
  for (const auto& c : cases) {
    for (const char* value : {"1e999", "-1e999"}) {
      const std::string spec = c.head + value + c.tail;
      const SpecParseResult parsed = parse_scenario_spec_text(spec);
      ASSERT_FALSE(parsed.ok) << spec;
      EXPECT_NE(parsed.error.find(std::string(c.key) +
                                  ": expected a finite number"),
                std::string::npos)
          << parsed.error;
    }
  }
}

// The object form of a spec governor meets parse_governor's range checks.
TEST(Spec, ObjectFormGovernorIsRangeChecked) {
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "dvfs", "timeline": "idle(dur=0.1)",
    "governor": {"boost_util": 2}
  })json");
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("governor: utilization thresholds"),
            std::string::npos)
      << parsed.error;
}

// Hand-built configs skip the spec reader, so the validators reject a
// non-finite value in every field the key prints as a JSON number.
TEST(CanonicalKey, ValidatorsRejectNonFiniteKeyedFields) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kInf, -kInf, std::nan("")}) {
    const ScenarioConfig configs[] = {
        edited(small_experiment(),
               [&](auto& c) { c.sampler.ramp_tau_s = bad; }),
        edited(small_experiment(),
               [&](auto& c) { c.sampler.noise_sigma_w = bad; }),
        edited(small_experiment(), [&](auto& c) {
          c.variation = gpupower::gpusim::ProcessVariation{bad, 7};
        }),
        edited(small_dvfs(), [&](auto& c) { c.governor.boost_hold_s = bad; }),
        edited(small_dvfs(), [&](auto& c) { c.governor.boost_util = bad; }),
        edited(small_fleet(),
               [&](auto& c) { c.devices[1].governor.low_hold_s = bad; }),
        edited(small_fleet(), [&](auto& c) { c.thermal.ambient_c = bad; }),
        edited(small_fleet(), [&](auto& c) { c.thermal.initial_c = bad; }),
    };
    for (const ScenarioConfig& config : configs) {
      EXPECT_FALSE(validate_scenario(config).empty())
          << bad << " accepted by " << canonical_scenario_key(config);
    }
  }
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

TEST(Spec, CampaignPointsPatchLikeAFreshBase) {
  // Expansion patches one working document from point to point.  Here a
  // later axis replaces "governor" with a DSL string, so on the next point
  // the earlier axis would patch inside a string; every point must still
  // expand as if patched from the base.
  const SpecParseResult parsed = parse_scenario_spec_text(R"json({
    "scenario": "campaign",
    "base": {
      "scenario": "dvfs",
      "experiment": {"dtype": "fp16", "n": 64, "seeds": 1},
      "timeline": "constant(util=50%, dur=0.1)"
    },
    "axes": [
      {"field": "governor.boost_util", "values": [0.7, 0.8]},
      {"field": "governor", "values": [
        {"value": {"policy": "utilization", "low_util": 0.2}, "label": "obj"},
        {"value": "fixed(1)", "label": "dsl"}]}
    ]
  })json");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  std::vector<CampaignPoint> points;
  std::string error;
  ASSERT_TRUE(expand_campaign(parsed.spec, points, error)) << error;
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[2].label, "0.8@obj");
  // The later axis wins: point 2's governor is exactly the object value.
  const SpecParseResult single = parse_scenario_spec_text(R"json({
    "scenario": "dvfs",
    "experiment": {"dtype": "fp16", "n": 64, "seeds": 1},
    "timeline": "constant(util=50%, dur=0.1)",
    "governor": {"policy": "utilization", "low_util": 0.2}
  })json");
  ASSERT_TRUE(single.ok) << single.error;
  EXPECT_EQ(canonical_scenario_key(points[2].config),
            canonical_scenario_key(single.spec.config));
  EXPECT_EQ(canonical_scenario_key(points[0].config),
            canonical_scenario_key(points[2].config));
  EXPECT_EQ(points[3].config.dvfs().governor.policy,
            gpupower::gpusim::dvfs::GovernorConfig::Policy::kFixed);
}

// --- figure axis -----------------------------------------------------------

// The paper-figure campaign shape of examples/specs/paper_figures.json: a
// figure axis over the pattern, then a dtype axis, on an A100 base at the
// fast sampled protocol (N=512, 2 seeds, 12 tiles, k-fraction 0.5).
constexpr const char* kFigureDTypes[] = {"fp32", "fp16", "fp16t", "int8"};

std::string figure_campaign(std::string_view axis) {
  return R"json({
    "scenario": "campaign",
    "base": {
      "scenario": "static",
      "experiment": {"gpu": "a100", "n": 512, "seeds": 2,
                     "sampling": {"tiles": 12, "k_fraction": 0.5}}
    },
    "axes": [
      )json" + std::string(axis) + R"json(,
      {"field": "experiment.dtype",
       "values": ["fp32", "fp16", "fp16t", "int8"]}
    ]
  })json";
}

TEST(Spec, FigureAxisExpandsEverySweepTimesEveryDtype) {
  for (const FigureId id : kAllFigures) {
    SCOPED_TRACE(std::string(figure_key(id)));
    const SpecParseResult parsed = parse_scenario_spec_text(figure_campaign(
        R"({"field": "experiment.pattern", "figure": ")" +
        std::string(figure_key(id)) + R"("})"));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::vector<CampaignPoint> points;
    std::string error;
    ASSERT_TRUE(expand_campaign(parsed.spec, points, error)) << error;
    const std::vector<SweepPoint> sweep = figure_sweep(id);
    constexpr std::size_t kDTypes = std::size(gpupower::numeric::kAllDTypes);
    ASSERT_EQ(points.size(), sweep.size() * kDTypes);
    for (std::size_t p = 0; p < sweep.size(); ++p) {
      for (std::size_t d = 0; d < kDTypes; ++d) {
        gpupower::numeric::DType dtype;
        ASSERT_TRUE(gpupower::numeric::parse_dtype(kFigureDTypes[d], dtype));
        ASSERT_EQ(dtype, gpupower::numeric::kAllDTypes[d]);
        const CampaignPoint& point = points[p * kDTypes + d];
        // Row-major: the figure axis varies slowest, in sweep order.
        EXPECT_EQ(point.label,
                  sweep[p].label + "@" + std::string(kFigureDTypes[d]));
        EXPECT_EQ(canonical_dsl(point.config.experiment().pattern),
                  canonical_dsl(sweep[p].spec));
        // The same scenario a hand-built figure sweep submits.
        const ExperimentConfig expected =
            ExperimentConfigBuilder()
                .dtype(dtype)
                .n(512)
                .seeds(2)
                .sampling(gpupower::gpusim::SamplingPlan::fast(12, 0.5))
                .pattern(sweep[p].spec)
                .build();
        EXPECT_EQ(canonical_scenario_key(point.config),
                  canonical_scenario_key(ScenarioConfig(expected)));
      }
    }
  }
}

TEST(Spec, UnknownFigureIdFailsNamingTheAxis) {
  const SpecParseResult parsed = parse_scenario_spec_text(figure_campaign(
      R"({"field": "experiment.pattern", "figure": "fig9z"})"));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("axes[0].figure"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("fig9z"), std::string::npos) << parsed.error;
}

TEST(Spec, FigureAxisWithValuesFails) {
  const SpecParseResult parsed = parse_scenario_spec_text(figure_campaign(
      R"json({"field": "experiment.pattern", "figure": "fig6a",
              "values": ["gaussian()"]})json"));
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("axes[0]"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("exactly one of 'values' or 'figure'"),
            std::string::npos)
      << parsed.error;
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

TEST(Scenario, ResultDocumentReloadsForEveryKind) {
  for (const ScenarioConfig& config :
       {ScenarioConfig(small_experiment()), ScenarioConfig(small_dvfs()),
        ScenarioConfig(small_fleet())}) {
    SCOPED_TRACE(std::string(name(config.kind())));
    analysis::JsonValue label = analysis::JsonValue::object();
    label.set("label", analysis::JsonValue::string("point"));
    // Printed and re-read, as a client of `gpowerctl run --json` would.
    const analysis::JsonParseResult printed = analysis::json_parse(
        scenario_to_json(config, run_scenario(config), std::move(label))
            .dump(/*pretty=*/true));
    ASSERT_TRUE(printed.ok) << printed.error;
    EXPECT_EQ(printed.value.keys(),
              (std::vector<std::string>{"label", "spec", "result"}));

    const SpecParseResult spec =
        parse_scenario_spec(*printed.value.find("spec"));
    ASSERT_TRUE(spec.ok) << spec.error;
    EXPECT_EQ(canonical_scenario_key(spec.spec.config),
              canonical_scenario_key(config));

    const analysis::JsonValue& result = *printed.value.find("result");
    ScenarioResult reloaded;
    std::string error;
    ASSERT_TRUE(
        scenario_result_from_json(config.kind(), result, reloaded, error))
        << error;
    EXPECT_EQ(scenario_result_to_json(reloaded).dump(), result.dump());
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
