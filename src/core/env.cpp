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

/// The retired experiment knobs and the spec field that replaced each.
constexpr std::pair<const char*, const char*> kRetiredKnobs[] = {
    {"GPUPOWER_N", "experiment.n"},
    {"GPUPOWER_SEEDS", "experiment.seeds"},
    {"GPUPOWER_TILES", "experiment.sampling.tiles"},
    {"GPUPOWER_KFRAC", "experiment.sampling.k_fraction"},
};

}  // namespace

bool parse_long_strict(const char* text, long min, long max, long& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < min || v > max) return false;
  out = v;
  return true;
}

bool parse_workers(const char* text, int& out) {
  long v = 0;
  if (!parse_long_strict(text, 0, 256, v)) return false;
  out = static_cast<int>(v);
  return true;
}

BenchEnv read_bench_env() {
  for (const auto& [name, field] : kRetiredKnobs) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') continue;
    std::fprintf(stderr, "gpupower: %s is retired: set %s in the spec\n",
                 name, field);
    std::exit(2);
  }
  BenchEnv env;
  const char* raw = std::getenv("GPUPOWER_WORKERS");
  if (raw != nullptr && *raw != '\0' && !parse_workers(raw, env.workers)) {
    die("GPUPOWER_WORKERS", raw, kWorkersExpect);
  }
  return env;
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
