// Structured JSON export for micro-benchmark results: builds one
// BENCH_<name>.json document per run in a stable, diff-friendly shape meant
// to be committed at the repo root.  The file holds the *current* trajectory
// point; git history of the committed file is the perf trajectory, and CI
// uploads the freshly measured document as an artifact on every run.
//
// Document shape (see README "Activity fast path" for the field glossary):
//
//   {
//     "bench": "activity_kernel",
//     "schema": 1,
//     "protocol": "N=1024 sampled(tiles=12, kfrac=0.50) ...",
//     "cases": [
//       {"name": "fp16", "metrics": {"observer_ms": ..., "batched_ms": ...,
//                                    "speedup": ...}},
//       ...
//     ]
//   }
#pragma once

#include <string>
#include <vector>

#include "analysis/json.hpp"

namespace gpupower::tools {

struct BenchMetric {
  std::string name;
  double value = 0.0;
};

struct BenchCase {
  std::string name;
  std::vector<BenchMetric> metrics;
};

/// Assembles the document above.  Metrics keep insertion order so committed
/// output diffs cleanly between runs.  A non-null `engine_stats` (e.g.
/// core::engine_stats_json) is embedded verbatim as a top-level
/// "engine_stats" block — machine-dependent observability context, NOT a
/// gated trajectory metric: compare_bench_documents walks only the
/// baseline's cases, so the block never participates in the perf gate and
/// committed baselines need no regeneration to stay comparable.
[[nodiscard]] analysis::JsonValue bench_document(
    const std::string& bench, const std::string& protocol,
    const std::vector<BenchCase>& cases,
    const analysis::JsonValue* engine_stats = nullptr);

/// Pretty-prints `doc` to `path` (with a trailing newline).  Returns false
/// when the file cannot be written.
bool write_bench_json(const std::string& path, const analysis::JsonValue& doc);

/// Reads and parses a bench document.  Returns false (with a message in
/// `error`) when the file is unreadable, malformed JSON, or not a bench
/// document (missing bench/cases).
bool read_bench_json(const std::string& path, analysis::JsonValue& doc,
                     std::string& error);

// --- trajectory comparison (the CI perf gate) -----------------------------

/// One metric compared between a fresh run and the committed baseline.
struct MetricDelta {
  std::string case_name;
  std::string metric;
  double baseline = 0.0;
  double fresh = 0.0;
  double ratio = 1.0;      ///< fresh / baseline (1.0 when baseline is 0)
  bool regressed = false;  ///< worsened beyond the tolerance
};

struct CompareOptions {
  /// Allowed relative movement before a gated metric fails: 0.25 passes a
  /// speedup up to 25% lower (or a gated wall time up to 25% slower) than
  /// the committed baseline.  Timer noise on shared CI runners is the
  /// reason this is generous.
  double tolerance = 0.25;
  /// Also gate "*_ms" wall times.  Off by default: absolute times only
  /// mean something between runs on the same machine, which the documents
  /// cannot prove — enable for local like-for-like comparisons.
  bool gate_walltime = false;
  /// Gate "*_j" energies (e.g. the BENCH_fleet.json cases).  On by
  /// default: energies are deterministic model outputs, not timings, so on
  /// a matching protocol they gate *symmetrically* — movement in either
  /// direction beyond the tolerance means the model changed and the
  /// committed trajectory document must be regenerated with it.
  bool gate_energy = true;
  /// When the baseline contains a case with this name, only its speedup
  /// gates and per-case speedups stay informational — an aggregate damps
  /// the per-dtype noise a shared CI runner adds (one dtype's ratio can
  /// legitimately move 15%+ between runner generations).  Set empty to
  /// gate every case's speedup.
  std::string speedup_gate_case = "geomean";
};

struct CompareResult {
  bool ok = false;          ///< documents comparable (same bench, cases)
  bool regressed = false;   ///< any gated metric beyond tolerance
  /// Nothing gates unless the two documents ran the same protocol (shape,
  /// plan); speedups at different shapes are different quantities.
  bool protocols_match = false;
  std::string error;        ///< set when !ok
  std::vector<MetricDelta> deltas;
};

/// Diffs a freshly measured bench document against the committed baseline.
/// Gating requires matching protocol strings; then:
///  - "speedup" (machine-relative: both backends timed on the same host,
///    so it transfers across machines) gates — smaller than baseline
///    beyond tolerance fails;
///  - "*_ms" wall times (machine-absolute) additionally gate when
///    options.gate_walltime is set — bigger beyond tolerance fails;
///  - "*_j" energies (deterministic model outputs) gate symmetrically
///    unless options.gate_energy is cleared — any move beyond tolerance
///    fails.
/// Everything else (macs, ...) is reported but never gates.  Cases present
/// in the baseline but missing from the fresh run make the documents
/// incomparable.
[[nodiscard]] CompareResult compare_bench_documents(
    const analysis::JsonValue& baseline, const analysis::JsonValue& fresh,
    const CompareOptions& options = {});

}  // namespace gpupower::tools
