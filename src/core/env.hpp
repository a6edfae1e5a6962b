// Environment-variable configuration.  An experiment is described by a
// spec (core/spec.hpp), never by the environment; the one engine knob,
// shared by every binary that runs an engine, is:
//   GPUPOWER_WORKERS  engine worker threads, 0 = hardware (default 0)
//
// GPUPOWER_N / GPUPOWER_SEEDS / GPUPOWER_TILES / GPUPOWER_KFRAC are
// retired: setting any of them exits 2 naming the spec field that carries
// the setting, so an old script never silently runs the defaults.
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


namespace gpupower::core {

struct BenchEnv {
  int workers = 0;  ///< ExperimentEngine pool size; 0 = hardware concurrency
};

/// Reads GPUPOWER_WORKERS.  Unset keeps the default; an invalid value
/// prints `gpupower: invalid GPUPOWER_WORKERS='...' (expected ...)` and a
/// retired experiment knob `gpupower: GPUPOWER_N is retired: set
/// experiment.n in the spec`, both with exit(2).
[[nodiscard]] BenchEnv read_bench_env();

/// Strict whole-token integer parse, the one number validator behind every
/// GPUPOWER_* knob and the command-line numeric flags: `text` must be
/// exactly one base-10 integer in [min, max] — no empty string, no
/// trailing characters ("3x" and "abc" are rejected, not read as 3 and 0).
[[nodiscard]] bool parse_long_strict(const char* text, long min, long max,
                                     long& out);

/// The accepted form of a worker count, for error messages.
inline constexpr const char* kWorkersExpect =
    "worker count in [0, 256]; 0 = hardware concurrency";

/// GPUPOWER_WORKERS's validator, shared with gpowerctl's --workers so the
/// flag and the variable accept exactly the same text.
[[nodiscard]] bool parse_workers(const char* text, int& out);

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

}  // namespace gpupower::core
