#include "core/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace gpupower::core {
namespace {

[[noreturn]] void die(const char* name, const char* raw, const char* expect) {
  std::fprintf(stderr, "gpupower: invalid %s='%s' (expected %s)\n", name, raw,
               expect);
  std::exit(2);
}

long read_long(const char* name, long fallback, long min, long max,
               const char* expect) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  long v = 0;
  if (!parse_long_strict(raw, min, max, v)) die(name, raw, expect);
  return v;
}

/// Each BenchEnv knob's environment variable, in read order.
constexpr std::pair<BenchKnob, const char*> kKnobVars[] = {
    {BenchKnob::kN, "GPUPOWER_N"},
    {BenchKnob::kSeeds, "GPUPOWER_SEEDS"},
    {BenchKnob::kTiles, "GPUPOWER_TILES"},
    {BenchKnob::kKFraction, "GPUPOWER_KFRAC"},
    {BenchKnob::kWorkers, "GPUPOWER_WORKERS"},
};

/// As parse_long_strict for reals in (min, max] — the lower bound is
/// exclusive, which is what fraction knobs want.
bool parse_double_strict(const char* text, double min, double max,
                         double& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > min) || !(v <= max)) return false;
  out = v;
  return true;
}

}  // namespace

bool parse_long_strict(const char* text, long min, long max, long& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < min || v > max) return false;
  out = v;
  return true;
}

bool set_bench_knob(BenchEnv& env, BenchKnob knob, const char* text,
                    std::string& expect) {
  long v = 0;
  switch (knob) {
    case BenchKnob::kN:
      expect = "integer matrix size in [" + std::to_string(kMinN) + ", " +
               std::to_string(kMaxN) + "]";
      if (!parse_long_strict(text, kMinN, kMaxN, v)) return false;
      env.n = static_cast<std::size_t>(v);
      return true;
    case BenchKnob::kSeeds:
      expect = "integer seed count in [1, " + std::to_string(kMaxSeeds) + "]";
      if (!parse_long_strict(text, 1, kMaxSeeds, v)) return false;
      env.seeds = static_cast<int>(v);
      return true;
    case BenchKnob::kTiles:
      expect = "integer tile budget in [0, " + std::to_string(kMaxTiles) +
               "]; 0 = exact walk";
      if (!parse_long_strict(text, 0, kMaxTiles, v)) return false;
      env.tiles = static_cast<std::size_t>(v);
      return true;
    case BenchKnob::kKFraction:
      expect = "fraction in (0, 1]";
      return parse_double_strict(text, 0.0, 1.0, env.k_fraction);
    case BenchKnob::kWorkers:
      expect = "worker count in [0, 256]; 0 = hardware concurrency";
      if (!parse_long_strict(text, 0, 256, v)) return false;
      env.workers = static_cast<int>(v);
      return true;
  }
  return false;
}

BenchEnv read_bench_env() {
  BenchEnv env;
  for (const auto& [knob, name] : kKnobVars) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') continue;
    std::string expect;
    if (!set_bench_knob(env, knob, raw, expect)) die(name, raw, expect.c_str());
  }
  return env;
}

bool env_is_set(const char* name) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0';
}

StoreEnv read_store_env() {
  StoreEnv env;
  const char* dir = std::getenv("GPUPOWER_STORE_DIR");
  if (dir != nullptr) env.dir = dir;

  const char* raw = std::getenv("GPUPOWER_STORE");
  bool on = true;
  if (raw != nullptr && *raw != '\0') {
    const std::string value(raw);
    if (value == "on") {
      on = true;
    } else if (value == "off") {
      on = false;
    } else {
      die("GPUPOWER_STORE", raw, "'on' or 'off'");
    }
  }
  if (on && raw != nullptr && *raw != '\0' && env.dir.empty()) {
    // An explicit 'on' with nowhere to store is a misconfiguration, not a
    // silent no-op.
    die("GPUPOWER_STORE", raw, "GPUPOWER_STORE_DIR to also be set");
  }
  env.enabled = on && !env.dir.empty();
  env.max_bytes = static_cast<std::size_t>(
      read_long("GPUPOWER_STORE_MAX_BYTES", 0, 0, 1ll << 62,
                "integer byte budget >= 0; 0 = unlimited"));
  return env;
}

ObsEnv read_obs_env() {
  ObsEnv env;
  const char* trace = std::getenv("GPUPOWER_TRACE");
  if (trace != nullptr) env.trace_path = trace;

  const char* raw = std::getenv("GPUPOWER_METRICS");
  if (raw != nullptr && *raw != '\0') {
    const std::string value(raw);
    if (value == "on") {
      env.metrics = true;
    } else if (value == "off") {
      env.metrics = false;
    } else {
      die("GPUPOWER_METRICS", raw, "'on' or 'off'");
    }
    env.metrics_set = true;
  }
  return env;
}

}  // namespace gpupower::core
