#include "core/spec.hpp"

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config_builder.hpp"
#include "core/dag/dag.hpp"
#include "core/engine.hpp"
#include "core/figures.hpp"
#include "core/obs/obs.hpp"
#include "core/pattern_dsl.hpp"
#include "gpusim/device.hpp"

namespace gpupower::core {
namespace {

using analysis::JsonValue;
namespace dvfs = gpupower::gpusim::dvfs;
namespace fleet = gpupower::gpusim::fleet;

/// Campaign grids above this are almost certainly a typo'd axis, not a
/// plan (the engine would happily chew through them for hours).
constexpr std::size_t kMaxCampaignPoints = 4096;

using detail::check_keys;
using detail::read_number;
using detail::read_string;
using Ctx = detail::SpecCtx;

std::string join_path(std::string_view parent, std::string_view key) {
  if (parent.empty()) return std::string(key);
  return std::string(parent) + "." + std::string(key);
}

bool read_int(const JsonValue* v, std::string_view path, Ctx& ctx,
              long long& out) {
  if (v == nullptr || !v->is_number()) {
    return ctx.fail(path, "expected an integer");
  }
  const double value = v->as_number();
  // Range-check before the cast: float-to-integer conversion outside the
  // target range is undefined behaviour, so a spec saying 1e300 must be
  // rejected here, not by whatever the hardware happens to produce.
  constexpr double kMax = 9223372036854775808.0;  // 2^63
  if (!(value > -kMax && value < kMax)) {
    return ctx.fail(path, "expected an integer");
  }
  out = static_cast<long long>(value);
  if (static_cast<double>(out) != value) {
    return ctx.fail(path, "expected an integer");
  }
  return true;
}

/// read_int for a count held in a `std::size_t` (n, iterations, tiles): a
/// negative value is rejected here, as written, instead of wrapping to
/// ~2^64 in the cast.  Upper bounds are validate_experiment_config's.
bool read_size(const JsonValue* v, std::string_view path, Ctx& ctx,
               std::size_t& out) {
  long long value = 0;
  if (!read_int(v, path, ctx, value)) return false;
  if (value < 0) {
    return ctx.fail(path, "integer " + std::to_string(value) +
                              " out of range (must be >= 0)");
  }
  out = static_cast<std::size_t>(value);
  return true;
}

/// read_int narrowed to `int`: values outside the int range are rejected
/// here, naming the key, instead of wrapping in the cast.
bool read_int32(const JsonValue* v, std::string_view path, Ctx& ctx,
                int& out) {
  long long value = 0;
  if (!read_int(v, path, ctx, value)) return false;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return ctx.fail(path, "integer " + std::to_string(value) +
                              " out of range [" +
                              std::to_string(std::numeric_limits<int>::min()) +
                              ", " +
                              std::to_string(std::numeric_limits<int>::max()) +
                              "]");
  }
  out = static_cast<int>(value);
  return true;
}

bool read_bool(const JsonValue* v, std::string_view path, Ctx& ctx,
               bool& out) {
  if (v == nullptr) return ctx.fail(path, "expected true or false");
  const bool fallback_true = v->as_boolean(true);
  const bool fallback_false = v->as_boolean(false);
  if (fallback_true != fallback_false) {
    return ctx.fail(path, "expected true or false");
  }
  out = fallback_true;
  return true;
}

// --- gpu / dtype spellings --------------------------------------------------

struct GpuSpelling {
  std::string_view key;
  gpupower::gpusim::GpuModel model;
};

constexpr GpuSpelling kGpuSpellings[] = {
    {"a100", gpupower::gpusim::GpuModel::kA100PCIe},
    {"h100", gpupower::gpusim::GpuModel::kH100SXM},
    {"v100", gpupower::gpusim::GpuModel::kV100SXM2},
    {"rtx6000", gpupower::gpusim::GpuModel::kRTX6000},
};

bool parse_gpu(std::string_view text, gpupower::gpusim::GpuModel& out) {
  std::string lowered(text);
  for (char& c : lowered) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (const GpuSpelling& spelling : kGpuSpellings) {
    if (lowered == spelling.key) {
      out = spelling.model;
      return true;
    }
  }
  // Also accept the full descriptor names ("NVIDIA A100 PCIe 40GB").
  for (const auto model : gpupower::gpusim::kAllGpuModels) {
    if (text == gpupower::gpusim::name(model)) {
      out = model;
      return true;
    }
  }
  return false;
}

std::string_view gpu_key(gpupower::gpusim::GpuModel model) {
  for (const GpuSpelling& spelling : kGpuSpellings) {
    if (spelling.model == model) return spelling.key;
  }
  return "a100";
}

std::string_view dtype_key(gpupower::numeric::DType dtype) {
  using gpupower::numeric::DType;
  switch (dtype) {
    case DType::kFP32:
      return "fp32";
    case DType::kFP16:
      return "fp16";
    case DType::kFP16T:
      return "fp16t";
    case DType::kINT8:
      return "int8";
  }
  return "fp32";
}

// --- experiment block -------------------------------------------------------

bool parse_experiment(const JsonValue* obj, std::string_view path, Ctx& ctx,
                      ExperimentConfig& out) {
  ExperimentConfigBuilder builder;
  if (obj != nullptr) {
    if (!obj->is_object()) return ctx.fail(path, "expected an object");
    if (!check_keys(*obj, path,
                    {"gpu", "dtype", "n", "seeds", "iterations", "base_seed",
                     "pattern", "sampling", "sampler", "variation"},
                    ctx)) {
      return false;
    }
    if (const JsonValue* v = obj->find("gpu")) {
      std::string text;
      if (!read_string(v, join_path(path, "gpu"), ctx, text)) return false;
      gpupower::gpusim::GpuModel model;
      if (!parse_gpu(text, model)) {
        return ctx.fail(join_path(path, "gpu"),
                        "unknown gpu '" + text +
                            "' (expected a100 | h100 | v100 | rtx6000)");
      }
      builder.gpu(model);
    }
    if (const JsonValue* v = obj->find("dtype")) {
      std::string text;
      if (!read_string(v, join_path(path, "dtype"), ctx, text)) return false;
      builder.dtype(text);
    }
    if (const JsonValue* v = obj->find("n")) {
      std::size_t n = 0;
      if (!read_size(v, join_path(path, "n"), ctx, n)) return false;
      builder.n(n);
    }
    if (const JsonValue* v = obj->find("seeds")) {
      int seeds = 0;
      if (!read_int32(v, join_path(path, "seeds"), ctx, seeds)) return false;
      builder.seeds(seeds);
    }
    if (const JsonValue* v = obj->find("iterations")) {
      std::size_t iterations = 0;
      if (!read_size(v, join_path(path, "iterations"), ctx, iterations)) {
        return false;
      }
      builder.iterations(iterations);
    }
    if (const JsonValue* v = obj->find("base_seed")) {
      long long seed = 0;
      if (!read_int(v, join_path(path, "base_seed"), ctx, seed)) return false;
      builder.base_seed(static_cast<std::uint64_t>(seed));
    }
    if (const JsonValue* v = obj->find("pattern")) {
      std::string dsl;
      if (!read_string(v, join_path(path, "pattern"), ctx, dsl)) return false;
      builder.pattern(dsl);
    }
    if (const JsonValue* v = obj->find("sampling")) {
      const std::string sampling_path = join_path(path, "sampling");
      if (!v->is_object()) return ctx.fail(sampling_path, "expected an object");
      if (!check_keys(*v, sampling_path, {"tiles", "k_fraction", "seed"},
                      ctx)) {
        return false;
      }
      gpupower::gpusim::SamplingPlan plan;
      if (const JsonValue* f = v->find("tiles")) {
        if (!read_size(f, join_path(sampling_path, "tiles"), ctx,
                       plan.max_tiles)) {
          return false;
        }
      }
      if (const JsonValue* f = v->find("k_fraction")) {
        if (!read_number(f, join_path(sampling_path, "k_fraction"), ctx,
                         plan.k_fraction)) {
          return false;
        }
      }
      if (const JsonValue* f = v->find("seed")) {
        long long seed = 0;
        if (!read_int(f, join_path(sampling_path, "seed"), ctx, seed)) {
          return false;
        }
        plan.seed = static_cast<std::uint64_t>(seed);
      }
      builder.sampling(plan);
    }
    if (const JsonValue* v = obj->find("sampler")) {
      const std::string sampler_path = join_path(path, "sampler");
      if (!v->is_object()) return ctx.fail(sampler_path, "expected an object");
      if (!check_keys(*v, sampler_path,
                      {"period_s", "warmup_trim_s", "ramp_tau_s",
                       "noise_sigma_w"},
                      ctx)) {
        return false;
      }
      telemetry::SamplerConfig sampler;
      if (const JsonValue* f = v->find("period_s")) {
        if (!read_number(f, join_path(sampler_path, "period_s"), ctx,
                         sampler.period_s)) {
          return false;
        }
      }
      if (const JsonValue* f = v->find("warmup_trim_s")) {
        if (!read_number(f, join_path(sampler_path, "warmup_trim_s"), ctx,
                         sampler.warmup_trim_s)) {
          return false;
        }
      }
      if (const JsonValue* f = v->find("ramp_tau_s")) {
        if (!read_number(f, join_path(sampler_path, "ramp_tau_s"), ctx,
                         sampler.ramp_tau_s)) {
          return false;
        }
      }
      if (const JsonValue* f = v->find("noise_sigma_w")) {
        if (!read_number(f, join_path(sampler_path, "noise_sigma_w"), ctx,
                         sampler.noise_sigma_w)) {
          return false;
        }
      }
      builder.sampler(sampler);
    }
    if (const JsonValue* v = obj->find("variation")) {
      const std::string variation_path = join_path(path, "variation");
      if (!v->is_object()) {
        return ctx.fail(variation_path, "expected an object");
      }
      if (!check_keys(*v, variation_path,
                      {"sigma_fraction", "instance", "per_seed"}, ctx)) {
        return false;
      }
      gpupower::gpusim::ProcessVariation variation;
      if (const JsonValue* f = v->find("sigma_fraction")) {
        if (!read_number(f, join_path(variation_path, "sigma_fraction"), ctx,
                         variation.sigma_fraction)) {
          return false;
        }
      }
      if (const JsonValue* f = v->find("instance")) {
        long long instance = 0;
        if (!read_int(f, join_path(variation_path, "instance"), ctx,
                      instance)) {
          return false;
        }
        variation.instance = static_cast<std::uint64_t>(instance);
      }
      if (const JsonValue* f = v->find("per_seed")) {
        if (!read_bool(f, join_path(variation_path, "per_seed"), ctx,
                       variation.per_seed)) {
          return false;
        }
      }
      builder.variation(variation);
    }
  }
  if (!builder.valid()) {
    return ctx.fail(path.empty() ? "experiment" : path, builder.error());
  }
  out = std::move(builder).build();
  return true;
}

// --- governor / thermal blocks ----------------------------------------------

bool parse_governor_field(const JsonValue& v, std::string_view path, Ctx& ctx,
                          dvfs::GovernorConfig& out) {
  if (v.is_string()) {
    const auto parsed = dvfs::parse_governor(v.as_string());
    if (!parsed.ok) {
      return ctx.fail(path, "governor DSL error at offset " +
                                std::to_string(parsed.error_pos) + ": " +
                                parsed.error);
    }
    out = parsed.config;
    return true;
  }
  if (!v.is_object()) {
    return ctx.fail(path, "expected a governor DSL string or object");
  }
  if (!check_keys(v, path,
                  {"policy", "fixed_pstate", "boost_util", "boost_hold_s",
                   "low_util", "low_hold_s"},
                  ctx)) {
    return false;
  }
  dvfs::GovernorConfig config;
  if (const JsonValue* f = v.find("policy")) {
    std::string policy;
    if (!read_string(f, join_path(path, "policy"), ctx, policy)) return false;
    if (policy == "fixed") {
      config.policy = dvfs::GovernorConfig::Policy::kFixed;
    } else if (policy == "utilization") {
      config.policy = dvfs::GovernorConfig::Policy::kUtilization;
    } else if (policy == "oracle") {
      config.policy = dvfs::GovernorConfig::Policy::kOracle;
    } else {
      return ctx.fail(join_path(path, "policy"),
                      "unknown policy '" + policy +
                          "' (expected fixed | utilization | oracle)");
    }
  }
  if (const JsonValue* f = v.find("fixed_pstate")) {
    if (!read_int32(f, join_path(path, "fixed_pstate"), ctx,
                    config.fixed_pstate)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("boost_util")) {
    if (!read_number(f, join_path(path, "boost_util"), ctx,
                     config.boost_util)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("boost_hold_s")) {
    if (!read_number(f, join_path(path, "boost_hold_s"), ctx,
                     config.boost_hold_s)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("low_util")) {
    if (!read_number(f, join_path(path, "low_util"), ctx, config.low_util)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("low_hold_s")) {
    if (!read_number(f, join_path(path, "low_hold_s"), ctx,
                     config.low_hold_s)) {
      return false;
    }
  }
  out = config;
  return true;
}

bool parse_thermal(const JsonValue& v, std::string_view path, Ctx& ctx,
                   fleet::ThermalConfig& out) {
  if (!v.is_object()) return ctx.fail(path, "expected an object");
  if (!check_keys(v, path,
                  {"enabled", "ambient_c", "tau_s", "trip_c", "release_c",
                   "throttle_pstate", "initial_c"},
                  ctx)) {
    return false;
  }
  fleet::ThermalConfig config;
  if (const JsonValue* f = v.find("enabled")) {
    if (!read_bool(f, join_path(path, "enabled"), ctx, config.enabled)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("ambient_c")) {
    if (!read_number(f, join_path(path, "ambient_c"), ctx,
                     config.ambient_c)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("tau_s")) {
    if (!read_number(f, join_path(path, "tau_s"), ctx, config.tau_s)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("trip_c")) {
    if (!read_number(f, join_path(path, "trip_c"), ctx, config.trip_c)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("release_c")) {
    if (!read_number(f, join_path(path, "release_c"), ctx,
                     config.release_c)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("throttle_pstate")) {
    if (!read_int32(f, join_path(path, "throttle_pstate"), ctx,
                    config.throttle_pstate)) {
      return false;
    }
  }
  if (const JsonValue* f = v.find("initial_c")) {
    if (!read_number(f, join_path(path, "initial_c"), ctx,
                     config.initial_c)) {
      return false;
    }
  }
  out = config;
  return true;
}

bool parse_phase_patterns(const JsonValue* v, std::string_view path, Ctx& ctx,
                          std::vector<std::string>& out) {
  if (v == nullptr) return true;
  if (!v->is_array()) {
    return ctx.fail(path, "expected an array of pattern DSL strings");
  }
  for (std::size_t i = 0; i < v->size(); ++i) {
    std::string dsl;
    std::string index = "[";
    index += std::to_string(i);
    index += ']';
    if (!read_string(&v->at(i), join_path(path, index), ctx, dsl)) {
      return false;
    }
    out.push_back(std::move(dsl));
  }
  return true;
}

// --- per-kind scenario parsing ----------------------------------------------

bool parse_static(const JsonValue& doc, Ctx& ctx, ScenarioConfig& out) {
  if (!check_keys(doc, "", {"scenario", "experiment"}, ctx)) return false;
  ExperimentConfig experiment;
  if (!parse_experiment(doc.find("experiment"), "experiment", ctx,
                        experiment)) {
    return false;
  }
  out = ScenarioConfig(std::move(experiment));
  return true;
}

bool parse_dvfs(const JsonValue& doc, Ctx& ctx, ScenarioConfig& out) {
  if (!check_keys(doc, "",
                  {"scenario", "experiment", "governor", "timeline",
                   "phase_patterns", "slice_s", "pstates"},
                  ctx)) {
    return false;
  }
  ExperimentConfig experiment;
  if (!parse_experiment(doc.find("experiment"), "experiment", ctx,
                        experiment)) {
    return false;
  }
  DvfsConfigBuilder builder;
  builder.experiment(experiment);
  if (const JsonValue* v = doc.find("governor")) {
    dvfs::GovernorConfig governor;
    if (!parse_governor_field(*v, "governor", ctx, governor)) return false;
    builder.governor(governor);
  }
  const JsonValue* timeline = doc.find("timeline");
  if (timeline == nullptr) {
    return ctx.fail("timeline",
                    "required for a dvfs scenario (a workload to replay)");
  }
  {
    std::string dsl;
    if (!read_string(timeline, "timeline", ctx, dsl)) return false;
    builder.timeline(dsl);
  }
  {
    std::vector<std::string> patterns;
    if (!parse_phase_patterns(doc.find("phase_patterns"), "phase_patterns",
                              ctx, patterns)) {
      return false;
    }
    for (const std::string& dsl : patterns) builder.add_phase_pattern(dsl);
  }
  if (const JsonValue* v = doc.find("slice_s")) {
    double slice = 0.0;
    if (!read_number(v, "slice_s", ctx, slice)) return false;
    builder.slice(slice);
  }
  if (const JsonValue* v = doc.find("pstates")) {
    int pstates = 0;
    if (!read_int32(v, "pstates", ctx, pstates)) return false;
    builder.pstates(pstates);
  }
  if (!builder.valid()) return ctx.fail("", builder.error());
  out = ScenarioConfig(std::move(builder).build());
  return true;
}

bool parse_fleet(const JsonValue& doc, Ctx& ctx, ScenarioConfig& out) {
  if (!check_keys(doc, "",
                  {"scenario", "experiment", "timelines", "devices",
                   "staggered", "allocator", "cap_w", "thermal",
                   "phase_patterns", "slice_s", "pstates"},
                  ctx)) {
    return false;
  }
  ExperimentConfig experiment;
  if (!parse_experiment(doc.find("experiment"), "experiment", ctx,
                        experiment)) {
    return false;
  }
  FleetConfigBuilder builder;
  builder.experiment(experiment);
  if (const JsonValue* v = doc.find("timelines")) {
    if (!v->is_array()) {
      return ctx.fail("timelines", "expected an array of timeline DSL strings");
    }
    for (std::size_t i = 0; i < v->size(); ++i) {
      std::string dsl;
      if (!read_string(&v->at(i), "timelines[" + std::to_string(i) + "]", ctx,
                       dsl)) {
        return false;
      }
      builder.add_timeline(dsl);
    }
  }
  if (const JsonValue* v = doc.find("devices")) {
    if (!v->is_array()) {
      return ctx.fail("devices", "expected an array of device objects");
    }
    for (std::size_t i = 0; i < v->size(); ++i) {
      const std::string device_path = "devices[" + std::to_string(i) + "]";
      const JsonValue& entry = v->at(i);
      if (!entry.is_object()) {
        return ctx.fail(device_path, "expected an object");
      }
      if (!check_keys(entry, device_path,
                      {"gpu", "governor", "timeline", "priority"}, ctx)) {
        return false;
      }
      FleetDeviceConfig device;
      if (const JsonValue* f = entry.find("gpu")) {
        std::string text;
        if (!read_string(f, join_path(device_path, "gpu"), ctx, text)) {
          return false;
        }
        if (!parse_gpu(text, device.gpu)) {
          return ctx.fail(join_path(device_path, "gpu"),
                          "unknown gpu '" + text +
                              "' (expected a100 | h100 | v100 | rtx6000)");
        }
      }
      if (const JsonValue* f = entry.find("governor")) {
        if (!parse_governor_field(*f, join_path(device_path, "governor"), ctx,
                                  device.governor)) {
          return false;
        }
      }
      if (const JsonValue* f = entry.find("timeline")) {
        if (!read_int32(f, join_path(device_path, "timeline"), ctx,
                        device.timeline)) {
          return false;
        }
      }
      if (const JsonValue* f = entry.find("priority")) {
        if (!read_int32(f, join_path(device_path, "priority"), ctx,
                        device.priority)) {
          return false;
        }
      }
      builder.add_device(device);
    }
  }
  if (const JsonValue* v = doc.find("staggered")) {
    if (!v->is_object()) return ctx.fail("staggered", "expected an object");
    if (!check_keys(*v, "staggered",
                    {"timeline", "count", "stagger_s", "gpu", "governor"},
                    ctx)) {
      return false;
    }
    const JsonValue* timeline = v->find("timeline");
    if (timeline == nullptr) {
      return ctx.fail("staggered.timeline", "required (a timeline DSL string)");
    }
    std::string timeline_dsl;
    if (!read_string(timeline, "staggered.timeline", ctx, timeline_dsl)) {
      return false;
    }
    const auto parsed_timeline = dvfs::parse_timeline(timeline_dsl);
    if (!parsed_timeline.ok) {
      return ctx.fail("staggered.timeline",
                      "timeline DSL error at offset " +
                          std::to_string(parsed_timeline.error_pos) + ": " +
                          parsed_timeline.error);
    }
    const JsonValue* count_value = v->find("count");
    if (count_value == nullptr) {
      return ctx.fail("staggered.count", "required (device count)");
    }
    int count = 0;
    if (!read_int32(count_value, "staggered.count", ctx, count)) return false;
    double stagger_s = 0.0;
    if (const JsonValue* f = v->find("stagger_s")) {
      if (!read_number(f, "staggered.stagger_s", ctx, stagger_s)) {
        return false;
      }
    }
    gpupower::gpusim::GpuModel gpu = gpupower::gpusim::GpuModel::kA100PCIe;
    if (const JsonValue* f = v->find("gpu")) {
      std::string text;
      if (!read_string(f, "staggered.gpu", ctx, text)) return false;
      if (!parse_gpu(text, gpu)) {
        return ctx.fail("staggered.gpu",
                        "unknown gpu '" + text +
                            "' (expected a100 | h100 | v100 | rtx6000)");
      }
    }
    std::string governor_dsl = "utilization()";
    if (const JsonValue* f = v->find("governor")) {
      if (!read_string(f, "staggered.governor", ctx, governor_dsl)) {
        return false;
      }
    }
    builder.add_staggered_devices(parsed_timeline.timeline,
                                  count, stagger_s, gpu,
                                  governor_dsl);
  }
  if (const JsonValue* v = doc.find("allocator")) {
    std::string policy;
    if (!read_string(v, "allocator", ctx, policy)) return false;
    builder.allocator(policy);
  }
  if (const JsonValue* v = doc.find("cap_w")) {
    if (!v->is_null()) {  // null spells "uncapped" explicitly
      double cap = 0.0;
      if (!read_number(v, "cap_w", ctx, cap)) return false;
      builder.cap(cap);
    }
  }
  if (const JsonValue* v = doc.find("thermal")) {
    fleet::ThermalConfig thermal;
    if (!parse_thermal(*v, "thermal", ctx, thermal)) return false;
    builder.thermal(thermal);
  }
  {
    std::vector<std::string> patterns;
    if (!parse_phase_patterns(doc.find("phase_patterns"), "phase_patterns",
                              ctx, patterns)) {
      return false;
    }
    for (const std::string& dsl : patterns) builder.add_phase_pattern(dsl);
  }
  if (const JsonValue* v = doc.find("slice_s")) {
    double slice = 0.0;
    if (!read_number(v, "slice_s", ctx, slice)) return false;
    builder.slice(slice);
  }
  if (const JsonValue* v = doc.find("pstates")) {
    int pstates = 0;
    if (!read_int32(v, "pstates", ctx, pstates)) return false;
    builder.pstates(pstates);
  }
  if (!builder.valid()) return ctx.fail("", builder.error());
  out = ScenarioConfig(std::move(builder).build());
  return true;
}

bool parse_single(const JsonValue& doc, Ctx& ctx, ScenarioConfig& out) {
  if (!doc.is_object()) return ctx.fail("", "spec must be a JSON object");
  const JsonValue* scenario = doc.find("scenario");
  if (scenario == nullptr) {
    return ctx.fail("scenario",
                    "required (static | dvfs | fleet | campaign | dag)");
  }
  std::string kind_name;
  if (!read_string(scenario, "scenario", ctx, kind_name)) return false;
  if (kind_name == "campaign") {
    return ctx.fail("scenario",
                    "a campaign cannot nest inside another campaign's base");
  }
  if (kind_name == "dag") {
    return ctx.fail("scenario",
                    "a dag cannot nest inside another spec's base");
  }
  ScenarioKind kind;
  if (!parse_scenario_kind(kind_name, kind)) {
    return ctx.fail("scenario", "unknown scenario kind '" + kind_name +
                                    "' (expected static | dvfs | fleet | "
                                    "campaign | dag)");
  }
  switch (kind) {
    case ScenarioKind::kStatic:
      return parse_static(doc, ctx, out);
    case ScenarioKind::kDvfs:
      return parse_dvfs(doc, ctx, out);
    case ScenarioKind::kFleet:
      return parse_fleet(doc, ctx, out);
  }
  return ctx.fail("scenario", "unhandled scenario kind");
}

// --- campaign parsing -------------------------------------------------------

std::string value_label(const JsonValue& value) {
  if (value.is_string()) return value.as_string();
  return value.dump();
}

bool parse_axis(const JsonValue& entry, std::string_view path, Ctx& ctx,
                CampaignAxis& out) {
  if (!entry.is_object()) return ctx.fail(path, "expected an axis object");
  if (!check_keys(entry, path, {"field", "values", "figure"}, ctx)) {
    return false;
  }
  const JsonValue* field = entry.find("field");
  if (field == nullptr) {
    return ctx.fail(join_path(path, "field"),
                    "required (a dotted path into the base spec)");
  }
  if (!read_string(field, join_path(path, "field"), ctx, out.field)) {
    return false;
  }
  if (out.field.empty()) {
    return ctx.fail(join_path(path, "field"), "must not be empty");
  }
  if (out.field == "scenario") {
    return ctx.fail(join_path(path, "field"),
                    "a campaign cannot sweep the scenario kind itself");
  }
  const JsonValue* values = entry.find("values");
  const JsonValue* figure = entry.find("figure");
  if ((values == nullptr) == (figure == nullptr)) {
    return ctx.fail(path, "needs exactly one of 'values' or 'figure'");
  }
  if (figure != nullptr) {
    std::string figure_name;
    if (!read_string(figure, join_path(path, "figure"), ctx, figure_name)) {
      return false;
    }
    FigureId id;
    if (!parse_figure_id(figure_name, id)) {
      return ctx.fail(join_path(path, "figure"),
                      "unknown figure id '" + figure_name + "'");
    }
    for (const SweepPoint& point : figure_sweep(id)) {
      out.values.push_back(
          {JsonValue::string(to_dsl(point.spec)), point.label});
    }
    return true;
  }
  if (!values->is_array() || values->size() == 0) {
    return ctx.fail(join_path(path, "values"), "expected a non-empty array");
  }
  for (std::size_t i = 0; i < values->size(); ++i) {
    const JsonValue& value = values->at(i);
    const std::string value_path =
        join_path(path, "values[" + std::to_string(i) + "]");
    if (value.is_object()) {
      if (!check_keys(value, value_path, {"value", "label"}, ctx)) {
        return false;
      }
      const JsonValue* payload = value.find("value");
      if (payload == nullptr) {
        return ctx.fail(join_path(value_path, "value"), "required");
      }
      std::string label = value_label(*payload);
      if (const JsonValue* l = value.find("label")) {
        if (!read_string(l, join_path(value_path, "label"), ctx, label)) {
          return false;
        }
      }
      out.values.push_back({*payload, std::move(label)});
    } else if (value.is_array()) {
      return ctx.fail(value_path,
                      "array axis values need the {\"value\": ..., "
                      "\"label\": ...} wrapper form");
    } else {
      out.values.push_back({value, value_label(value)});
    }
  }
  return true;
}

bool parse_campaign(const JsonValue& doc, Ctx& ctx, ScenarioSpec& out) {
  if (!check_keys(doc, "", {"scenario", "name", "protocol", "base", "axes"},
                  ctx)) {
    return false;
  }
  out.campaign = true;
  if (const JsonValue* v = doc.find("name")) {
    if (!read_string(v, "name", ctx, out.name)) return false;
  }
  if (const JsonValue* v = doc.find("protocol")) {
    if (!read_string(v, "protocol", ctx, out.protocol)) return false;
  }
  const JsonValue* base = doc.find("base");
  if (base == nullptr) {
    return ctx.fail("base", "required (the scenario spec the axes patch)");
  }
  {
    Ctx base_ctx;
    ScenarioConfig base_config;
    if (!parse_single(*base, base_ctx, base_config)) {
      return ctx.fail("base", base_ctx.error);
    }
    out.config = std::move(base_config);  // the grid's un-patched corner
  }
  out.base = *base;
  const JsonValue* axes = doc.find("axes");
  if (axes == nullptr || !axes->is_array() || axes->size() == 0) {
    return ctx.fail("axes", "required (a non-empty array of axis objects)");
  }
  std::size_t points = 1;
  for (std::size_t i = 0; i < axes->size(); ++i) {
    CampaignAxis axis;
    if (!parse_axis(axes->at(i), "axes[" + std::to_string(i) + "]", ctx,
                    axis)) {
      return false;
    }
    points *= axis.values.size();
    out.axes.push_back(std::move(axis));
  }
  if (points > kMaxCampaignPoints) {
    return ctx.fail("axes", "campaign grid has " + std::to_string(points) +
                                " points (max " +
                                std::to_string(kMaxCampaignPoints) + ")");
  }
  return true;
}

// --- serialisation ----------------------------------------------------------
//
// One serialiser behind spec_to_json and canonical_scenario_key.  `key`
// selects the normalised form the key dumps (the rules are listed at
// canonical_scenario_key in core/scenario.hpp); every rule drops or
// resolves only what no result can see, which test_spec pins per rule by
// comparing run_scenario results byte for byte.

/// Timelines longer than this key as a digest instead of a phase list.
constexpr std::size_t kMaxKeyedPhases = 64;

JsonValue pattern_json(const PatternSpec& pattern, bool key) {
  return JsonValue::string(key ? canonical_dsl(pattern) : to_dsl(pattern));
}

JsonValue experiment_to_json(const ExperimentConfig& config, bool key,
                             bool replay) {
  JsonValue sampling = JsonValue::object();
  sampling
      .set("tiles",
           JsonValue::integer(static_cast<long long>(config.sampling.max_tiles)))
      .set("k_fraction", JsonValue::number(config.sampling.k_fraction))
      .set("seed", JsonValue::integer(
                       static_cast<long long>(config.sampling.seed)));

  // The dvfs and fleet replays read neither iterations nor the sampler.
  const bool drop_unread = key && replay;
  JsonValue e = JsonValue::object();
  e.set("gpu", JsonValue::string(gpu_key(config.gpu)))
      .set("dtype", JsonValue::string(dtype_key(config.dtype)))
      .set("n", JsonValue::integer(static_cast<long long>(config.n)))
      .set("seeds", JsonValue::integer(config.seeds));
  if (!drop_unread) {
    e.set("iterations", JsonValue::integer(static_cast<long long>(
                            key ? config.effective_iterations()
                                : config.iterations)));
  }
  e.set("base_seed",
        JsonValue::integer(static_cast<long long>(config.base_seed)))
      .set("pattern", pattern_json(config.pattern, key))
      .set("sampling", std::move(sampling));
  if (!drop_unread) {
    JsonValue sampler = JsonValue::object();
    sampler.set("period_s", JsonValue::number(config.sampler.period_s))
        .set("warmup_trim_s", JsonValue::number(config.sampler.warmup_trim_s))
        .set("ramp_tau_s", JsonValue::number(config.sampler.ramp_tau_s))
        .set("noise_sigma_w", JsonValue::number(config.sampler.noise_sigma_w));
    e.set("sampler", std::move(sampler));
  }
  if (config.variation) {
    JsonValue variation = JsonValue::object();
    variation
        .set("sigma_fraction",
             JsonValue::number(config.variation->sigma_fraction))
        .set("instance", JsonValue::integer(static_cast<long long>(
                             config.variation->instance)))
        .set("per_seed", JsonValue::boolean(config.variation->per_seed));
    e.set("variation", std::move(variation));
  }
  return e;
}

JsonValue governor_to_json(const dvfs::GovernorConfig& config) {
  const char* policy = "utilization";
  if (config.policy == dvfs::GovernorConfig::Policy::kFixed) policy = "fixed";
  if (config.policy == dvfs::GovernorConfig::Policy::kOracle) {
    policy = "oracle";
  }
  JsonValue g = JsonValue::object();
  g.set("policy", JsonValue::string(policy))
      .set("fixed_pstate", JsonValue::integer(config.fixed_pstate))
      .set("boost_util", JsonValue::number(config.boost_util))
      .set("boost_hold_s", JsonValue::number(config.boost_hold_s))
      .set("low_util", JsonValue::number(config.low_util))
      .set("low_hold_s", JsonValue::number(config.low_hold_s));
  return g;
}

JsonValue thermal_to_json(const fleet::ThermalConfig& config, bool key) {
  JsonValue t = JsonValue::object();
  t.set("enabled", JsonValue::boolean(config.enabled));
  // A disabled model reads none of its parameters.
  if (key && !config.enabled) return t;
  t.set("ambient_c", JsonValue::number(config.ambient_c))
      .set("tau_s", JsonValue::number(config.tau_s))
      .set("trip_c", JsonValue::number(config.trip_c))
      .set("release_c", JsonValue::number(config.release_c))
      .set("throttle_pstate", JsonValue::integer(config.throttle_pstate))
      .set("initial_c", JsonValue::number(config.initial_c));
  return t;
}

JsonValue timeline_json(const dvfs::WorkloadTimeline& timeline, bool key) {
  if (!key || timeline.phases().size() <= kMaxKeyedPhases) {
    return JsonValue::string(dvfs::to_dsl(timeline));
  }
  // A burst DSL can legally realise ~2M phases: the key carries the phase
  // count and an FNV-1a hash over the raw phase fields, so no multi-MB
  // string is ever materialised.
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 64; b += 8) {
      hash ^= (bits >> b) & 0xFFu;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& phase : timeline.phases()) {
    mix(phase.duration_s);
    mix(phase.utilization);
    mix(static_cast<double>(phase.pattern));
  }
  return JsonValue::string("#" + std::to_string(timeline.phases().size()) +
                           ":" + std::to_string(hash));
}

JsonValue phase_patterns_to_json(const std::vector<PatternSpec>& patterns,
                                 bool key) {
  JsonValue list = JsonValue::array();
  for (const PatternSpec& pattern : patterns) {
    list.push(pattern_json(pattern, key));
  }
  return list;
}

JsonValue scenario_json(const ScenarioConfig& config, bool key) {
  JsonValue doc = JsonValue::object();
  doc.set("scenario", JsonValue::string(name(config.kind())));
  switch (config.kind()) {
    case ScenarioKind::kStatic:
      doc.set("experiment",
              experiment_to_json(config.static_config(), key, false));
      break;
    case ScenarioKind::kDvfs: {
      const DvfsConfig& dvfs_config = config.dvfs();
      doc.set("experiment",
              experiment_to_json(dvfs_config.experiment, key, true))
          .set("governor", governor_to_json(dvfs_config.governor))
          .set("timeline", timeline_json(dvfs_config.timeline, key))
          .set("phase_patterns",
               phase_patterns_to_json(dvfs_config.phase_patterns, key))
          .set("slice_s", JsonValue::number(dvfs_config.slice_s))
          .set("pstates", JsonValue::integer(dvfs_config.pstates));
      break;
    }
    case ScenarioKind::kFleet: {
      const FleetConfig& fleet_config = config.fleet();
      JsonValue timelines = JsonValue::array();
      for (const dvfs::WorkloadTimeline& timeline : fleet_config.timelines) {
        timelines.push(timeline_json(timeline, key));
      }
      JsonValue devices = JsonValue::array();
      for (const FleetDeviceConfig& device : fleet_config.devices) {
        JsonValue entry = JsonValue::object();
        entry.set("gpu", JsonValue::string(gpu_key(device.gpu)))
            .set("governor", governor_to_json(device.governor))
            .set("timeline", JsonValue::integer(device.timeline))
            .set("priority", JsonValue::integer(device.priority));
        devices.push(std::move(entry));
      }
      doc.set("experiment",
              experiment_to_json(fleet_config.experiment, key, true))
          .set("timelines", std::move(timelines))
          .set("devices", std::move(devices))
          .set("allocator",
               JsonValue::string(fleet::name(fleet_config.allocator.policy)))
          .set("cap_w", fleet_config.allocator.capped()
                            ? JsonValue::number(fleet_config.allocator.cap_w)
                            : JsonValue::null())
          .set("thermal", thermal_to_json(fleet_config.thermal, key))
          .set("phase_patterns",
               phase_patterns_to_json(fleet_config.phase_patterns, key))
          .set("slice_s", JsonValue::number(fleet_config.slice_s))
          .set("pstates", JsonValue::integer(fleet_config.pstates));
      break;
    }
  }
  return doc;
}

}  // namespace

SpecParseResult parse_scenario_spec(const JsonValue& doc) {
  SpecParseResult result;
  Ctx ctx;
  if (!doc.is_object()) {
    ctx.fail("", "spec must be a JSON object");
    result.error = ctx.error;
    return result;
  }
  const JsonValue* scenario = doc.find("scenario");
  std::string kind_name;
  if (scenario != nullptr && scenario->is_string()) {
    kind_name = scenario->as_string();
  }
  bool ok = false;
  if (kind_name == "campaign") {
    ok = parse_campaign(doc, ctx, result.spec);
  } else if (kind_name == "dag") {
    auto parsed = std::make_shared<dag::DagSpec>();
    std::string dag_error;
    ok = dag::parse_dag(doc, *parsed, dag_error);
    if (ok) {
      result.spec.name = parsed->name;
      result.spec.dag = std::move(parsed);
    } else {
      ctx.fail("", dag_error);
    }
  } else {
    ok = parse_single(doc, ctx, result.spec.config);
  }
  if (!ok) {
    result.error = ctx.error;
    return result;
  }
  result.ok = true;
  return result;
}

SpecParseResult parse_scenario_spec_text(std::string_view json_text) {
  const analysis::JsonParseResult parsed = analysis::json_parse(json_text);
  if (!parsed.ok) {
    SpecParseResult result;
    result.error = "JSON syntax error at byte " +
                   std::to_string(parsed.error_pos) + ": " + parsed.error;
    return result;
  }
  return parse_scenario_spec(parsed.value);
}

SpecParseResult load_scenario_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SpecParseResult result;
    result.error = "cannot read spec file '" + path + "'";
    return result;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_scenario_spec_text(text.str());
}

analysis::JsonValue spec_to_json(const ScenarioConfig& config) {
  return scenario_json(config, /*key=*/false);
}

analysis::JsonValue scenario_to_json(const ScenarioConfig& config,
                                     const ScenarioResult& result,
                                     analysis::JsonValue doc) {
  doc.set("spec", spec_to_json(config))
      .set("result", scenario_result_to_json(result));
  return doc;
}

std::string canonical_scenario_key(const ScenarioConfig& config) {
  // '\x1f' (unit separator) cannot appear in a kind name, so keys of
  // different kinds can never collide; trace tools split on it.
  return std::string(name(config.kind())) + '\x1f' +
         scenario_json(config, /*key=*/true).dump();
}

bool expand_campaign(const ScenarioSpec& spec, std::vector<CampaignPoint>& out,
                     std::string& error) {
  obs::Span span("campaign.expand");
  out.clear();
  if (!spec.campaign) {
    error = "not a campaign spec";
    return false;
  }
  std::size_t total = 1;
  for (const CampaignAxis& axis : spec.axes) total *= axis.values.size();
  out.reserve(total);

  // Sets every axis path of the point `index` names; false with `error`
  // naming the axis on the first failed patch.
  const auto patch_point = [&spec](const std::vector<std::size_t>& index,
                                   JsonValue& doc, std::string& error) {
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const CampaignAxis& axis = spec.axes[a];
      std::string patch_error;
      if (!detail::patch_spec_path(doc, axis.field,
                                   axis.values[index[a]].value, patch_error)) {
        error = "axis '" + axis.field + "': " + patch_error;
        return false;
      }
    }
    return true;
  };

  // One working document for the whole grid: every point sets every axis
  // path, so patching the previous point's document yields what patching
  // a fresh copy of the base would.  The exception is an axis patching
  // inside a value that a later axis replaced with a non-object on the
  // previous point, so a failed patch retries from the base before the
  // point fails.
  JsonValue doc = spec.base;
  std::vector<std::size_t> index(spec.axes.size(), 0);
  for (std::size_t point = 0; point < total; ++point) {
    CampaignPoint entry;
    if (!patch_point(index, doc, error)) {
      doc = spec.base;
      if (!patch_point(index, doc, error)) return false;
    }
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const CampaignAxis& axis = spec.axes[a];
      const CampaignAxisValue& value = axis.values[index[a]];
      if (a != 0) entry.label += "@";
      entry.label += value.label;
      entry.coords.emplace_back(axis.field, value.label);
    }
    Ctx ctx;
    if (!parse_single(doc, ctx, entry.config)) {
      error = "campaign point '" + entry.label + "': " + ctx.error;
      return false;
    }
    out.push_back(std::move(entry));
    // Odometer: the last axis spins fastest (row-major grid order).
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++index[a] < spec.axes[a].values.size()) break;
      index[a] = 0;
    }
  }
  if (obs::tracing_enabled()) {
    span.args(obs::SpanArgs()
                  .arg("campaign", obs::intern(spec.name))
                  .arg("points", static_cast<std::int64_t>(out.size())));
  }
  return true;
}

bool detail::SpecCtx::fail(std::string_view path, std::string_view message) {
  if (error.empty()) {
    error = path.empty() ? std::string(message)
                         : std::string(path) + ": " + std::string(message);
  }
  return false;
}

bool detail::check_keys(const JsonValue& obj, std::string_view path,
                        std::initializer_list<std::string_view> allowed,
                        SpecCtx& ctx) {
  for (const std::string& key : obj.keys()) {
    bool known = false;
    for (const std::string_view candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string expected;
      for (const std::string_view candidate : allowed) {
        if (!expected.empty()) expected += ", ";
        expected += candidate;
      }
      return ctx.fail(path.empty() ? "spec" : path,
                      "unknown key '" + key + "' (expected one of: " +
                          expected + ")");
    }
  }
  return true;
}

bool detail::read_string(const JsonValue* v, std::string_view path,
                         SpecCtx& ctx, std::string& out) {
  if (v == nullptr || !v->is_string()) {
    return ctx.fail(path, "expected a string");
  }
  out = v->as_string();
  return true;
}

bool detail::read_number(const JsonValue* v, std::string_view path,
                         SpecCtx& ctx, double& out) {
  if (v == nullptr || !v->is_number()) {
    return ctx.fail(path, "expected a number");
  }
  // JSON has no infinity, but strtod reads 1e999 as one; the key would
  // print it (and -1e999) as null, so no spec number may be non-finite.
  if (!std::isfinite(v->as_number())) {
    return ctx.fail(path, "expected a finite number");
  }
  out = v->as_number();
  return true;
}

// Of duplicate member names only the first, the one every reader sees, is
// patched.
bool detail::patch_spec_path(analysis::JsonValue& doc, std::string_view path,
                             const analysis::JsonValue& leaf,
                             std::string& error) {
  const std::size_t dot = path.find('.');
  const std::string_view head =
      dot == std::string_view::npos ? path : path.substr(0, dot);
  if (head.empty()) {
    error = "empty path segment";
    return false;
  }
  if (!doc.is_object()) {
    error = "'" + std::string(head) + "' would patch inside a non-object";
    return false;
  }
  JsonValue* member = doc.find(head);
  if (member == nullptr) {
    doc.set(head, JsonValue::object());
    member = doc.find(head);
  }
  if (dot == std::string_view::npos) {
    *member = leaf;
    return true;
  }
  return patch_spec_path(*member, path.substr(dot + 1), leaf, error);
}

bool submit_campaign(ExperimentEngine& engine, const ScenarioSpec& spec,
                     CampaignRun& out, std::string& error) {
  if (!expand_campaign(spec, out.points, error)) return false;
  out.handles.clear();
  out.handles.reserve(out.points.size());
  out.outcomes.clear();
  out.outcomes.reserve(out.points.size());
  for (const CampaignPoint& point : out.points) {
    // The point label rides on a wrapper span (the submit span inside
    // carries the canonical key), tying grid coordinates to scenario
    // identity in one trace query.
    obs::Span span("campaign.point");
    if (obs::tracing_enabled()) {
      span.args(obs::SpanArgs().arg("point", obs::intern(point.label)));
    }
    ExperimentEngine::SubmitOutcome outcome;
    out.handles.push_back(engine.submit(point.config, &outcome));
    out.outcomes.push_back(outcome);
  }
  return true;
}

}  // namespace gpupower::core
