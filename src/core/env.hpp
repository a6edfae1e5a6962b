// Environment-variable configuration shared by the bench binaries, the
// examples and gpowerctl's dmon/features/predict, so a single knob set
// scales them between CI speed and paper-fidelity runs (a spec carries its
// own experiment fields; only GPUPOWER_WORKERS applies to spec runs):
//   GPUPOWER_N        matrix dimension (default 512; paper 2048)
//   GPUPOWER_SEEDS    seeds per configuration (default 2; paper 10)
//   GPUPOWER_TILES    sampled warp tiles, 0 = exact walk (default 12)
//   GPUPOWER_KFRAC    fraction of K-slices walked (default 0.5)
//   GPUPOWER_WORKERS  engine worker threads, 0 = hardware (default 0)
//
// The persistent result store (core/store/) has its own knobs, shared by
// gpowerctl's run and serve verbs:
//   GPUPOWER_STORE_DIR        store directory; unset = store off
//   GPUPOWER_STORE            'on' | 'off' override (default on when a dir
//                             is set)
//   GPUPOWER_STORE_MAX_BYTES  LRU size cap: opening a store sweeps
//                             oldest-mtime entries until the directory
//                             fits (0 / unset = unlimited)
//
// The observability layer (core/obs/) reads:
//   GPUPOWER_TRACE    Chrome-trace output path; setting it turns tracing
//                     (and metrics) on, and the trace is written at exit
//   GPUPOWER_METRICS  'on' | 'off' — metric/timing accumulation without a
//                     trace (default off, or on when GPUPOWER_TRACE is set)
//
// Malformed or out-of-range values are rejected with a one-line error on
// stderr and exit code 2 — a typo'd knob must never silently misconfigure
// a run.
#pragma once

#include <cstddef>
#include <string>

#include "core/experiment.hpp"

namespace gpupower::core {

struct BenchEnv {
  std::size_t n = 512;
  int seeds = 2;
  std::size_t tiles = 12;
  double k_fraction = 0.5;
  int workers = 0;  ///< ExperimentEngine pool size; 0 = hardware concurrency

  /// Applies the environment knobs onto an ExperimentConfig.
  void apply(ExperimentConfig& config) const {
    config.n = n;
    config.seeds = seeds;
    config.sampling.max_tiles = tiles;
    config.sampling.k_fraction = k_fraction;
  }
};

/// Reads the GPUPOWER_* variables.  Unset variables keep their defaults;
/// invalid values print `gpupower: invalid GPUPOWER_X='...' (expected ...)`
/// and exit(2).
[[nodiscard]] BenchEnv read_bench_env();

/// Strict whole-token integer parse, the one number validator behind every
/// GPUPOWER_* knob and gpowerctl's numeric flags: `text` must be exactly
/// one base-10 integer in [min, max] — no empty string, no trailing
/// characters ("3x" and "abc" are rejected, not read as 3 and 0).
[[nodiscard]] bool parse_long_strict(const char* text, long min, long max,
                                     long& out);

/// The BenchEnv knobs.  Each has one validator (range and message), shared
/// by its GPUPOWER_* variable and any command-line flag mirroring it.
enum class BenchKnob { kN, kSeeds, kTiles, kKFraction, kWorkers };

/// Parses `text` into `env`'s field for `knob`.  Returns false on a
/// malformed or out-of-range value, leaving the field unchanged; `expect`
/// always receives the accepted form (e.g. "integer seed count in
/// [1, 10000]") for the caller's error message.
[[nodiscard]] bool set_bench_knob(BenchEnv& env, BenchKnob knob,
                                  const char* text, std::string& expect);

/// Persistent-result-store knobs (core/store/result_store.hpp).
struct StoreEnv {
  std::string dir;       ///< GPUPOWER_STORE_DIR; empty = no store
  bool enabled = false;  ///< dir set and not overridden by GPUPOWER_STORE=off
  /// GPUPOWER_STORE_MAX_BYTES: entry-size budget enforced by LRU eviction
  /// when a store opens; 0 = unlimited.
  std::size_t max_bytes = 0;
};

/// Reads GPUPOWER_STORE_DIR / GPUPOWER_STORE with the same strictness as
/// read_bench_env: GPUPOWER_STORE must be 'on' or 'off' (exit 2 otherwise),
/// and 'on' without a directory is rejected rather than silently ignored.
[[nodiscard]] StoreEnv read_store_env();

/// Observability knobs (core/obs/obs.hpp).  obs::init_from_env() applies
/// them; they are read here so validation stays centralised.
struct ObsEnv {
  std::string trace_path;    ///< GPUPOWER_TRACE; empty = tracing off
  bool metrics = false;      ///< GPUPOWER_METRICS value when set
  bool metrics_set = false;  ///< GPUPOWER_METRICS present (non-empty)
};

/// Reads GPUPOWER_TRACE / GPUPOWER_METRICS.  GPUPOWER_METRICS must be
/// 'on' or 'off' (exit 2 otherwise); GPUPOWER_TRACE is a path and any
/// non-empty value is accepted.
[[nodiscard]] ObsEnv read_obs_env();

/// True when the variable is set to a non-empty value.  The one sanctioned
/// presence check outside this module's readers — callers that need the
/// value itself go through read_bench_env/read_store_env so validation
/// stays centralised (and tools/lint_project.py enforces exactly that).
[[nodiscard]] bool env_is_set(const char* name);

}  // namespace gpupower::core
