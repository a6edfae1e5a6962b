// gpowerctl — dcgmi/nvidia-smi-flavoured command-line front end for the
// simulator.  Lets a user poke the full stack without writing C++:
//
//   gpowerctl discovery
//       list the modelled GPUs (index, name, TDP, memory)
//   gpowerctl dmon <spec.json>
//       run one static scenario and stream DCGM-style 100 ms power
//       samples, then print the trimmed-average summary
//   gpowerctl features <spec.json>
//       print the input statistics the power model consumes
//   gpowerctl predict <spec.json>
//       train the input-dependent power model on the figure sweeps at the
//       spec's working point and predict its power without a kernel walk
//   gpowerctl validate <spec.json>
//       parse a declarative scenario spec (core/spec.hpp) and report what
//       it would run — campaign grids are expanded and every point checked
//   gpowerctl run <spec.json> [--csv | --json] [--bench-out FILE]
//       execute a spec: one scenario, or a whole campaign grid fanned
//       through the engine as one deduplicated batch.  Figure sweeps, DVFS
//       governor comparisons and power-capped fleets are specs too — see
//       examples/specs/ (figure_sweep.json, dvfs_baselines.json,
//       fleet_capping.json).  --json prints every point's "spec" (its
//       spec document) and "result" (the store's exact result codec)
//   gpowerctl serve [--socket PATH] [--full]
//       long-lived mode: read newline-delimited spec JSON from stdin (or
//       accept concurrent clients on a Unix socket) and stream one NDJSON
//       result line per scenario as it completes; all clients share one
//       engine and one result store, so identical submissions dedup.
//       --full attaches the same "spec" and "result" documents
//   gpowerctl top --socket PATH | --metrics-file FILE
//       live operational view: poll a serve socket's stats events (or
//       re-read a --metrics-out / GPUPOWER_METRICS document) and render
//       engine throughput with per-poll deltas, replica-latency quantiles,
//       the per-kind breakdown, and the live per-session rows
//
// With GPUPOWER_STORE_DIR set, run/serve attach the persistent result
// store (core/store/): results survive the process and warm replays skip
// every replica computation (GPUPOWER_STORE=off disables it without
// unsetting the directory).
//
// A spec is the one description of an experiment: dmon, features and
// predict take a single static scenario spec, run/validate any spec.  Each
// flag applies to the verbs that read it (kFlagScopes); on any other verb
// it exits 2, and the retired experiment flags (--n, --seeds, --tiles,
// --kfrac, --gpu, --dtype, --pattern) name the spec field instead.
// --workers W (run, serve, predict) has the same range and strictness as
// GPUPOWER_WORKERS.  Campaigns and model training run batched on the
// ExperimentEngine: every point fans out across the worker pool and
// repeated configurations are served from the engine cache.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json.hpp"

#include "analysis/table.hpp"
#include "core/dag/dag.hpp"
#include "core/engine.hpp"
#include "core/env.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/obs/obs.hpp"
#include "core/pattern_dsl.hpp"
#include "core/power_model.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"
#include "core/store/result_store.hpp"
#include "core/store/serve.hpp"
#include "telemetry/sampler.hpp"
#include "tools/bench_export.hpp"

namespace {

using namespace gpupower;

/// The verbs as bits, so a flag can name every verb that reads it.
enum Verb : unsigned {
  kDiscovery = 1u << 0,
  kDmon = 1u << 1,
  kFeatures = 1u << 2,
  kPredict = 1u << 3,
  kRun = 1u << 4,
  kValidate = 1u << 5,
  kServe = 1u << 6,
  kTop = 1u << 7,
};

struct Options {
  std::string command;
  Verb verb = kDiscovery;
  core::BenchEnv env;
  bool csv = false;
  bool json = false;
  // spec front end (every verb in kSpecFileVerbs)
  std::string spec_path;  ///< positional <spec.json>
  std::string bench_out;  ///< campaign bench-document output path
  bool expand = false;    ///< validate: print expanded points / node order
  // serve command knobs
  std::string socket_path;   ///< serve: Unix socket instead of stdin
  bool full_results = false; ///< serve: attach full result docs to events
  int stats_every = 0;       ///< serve: stats event every N results (0 = off)
  // top command knobs (--socket doubles as the poll target)
  std::string metrics_file;  ///< top: re-read a metrics JSON document
  int top_interval_ms = 1000;///< top: poll interval
  int top_count = 0;         ///< top: number of polls; 0 = until ctrl-c
  bool plain = false;        ///< top: no ANSI clear, append frames instead
  // observability (flags win over GPUPOWER_TRACE / GPUPOWER_METRICS)
  std::string trace_out;     ///< Chrome-trace JSON output path
  std::string metrics_out;   ///< metrics_json() output path (run commands)
};

constexpr gpusim::GpuModel kGpuByIndex[] = {
    gpusim::GpuModel::kA100PCIe, gpusim::GpuModel::kH100SXM,
    gpusim::GpuModel::kV100SXM2, gpusim::GpuModel::kRTX6000};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <discovery|dmon|features|predict|run|validate"
               "|serve|top> [options]\n"
               "  dmon <spec.json>     stream DCGM-style power samples of one "
               "static scenario\n"
               "  features <spec.json> input statistics of one static "
               "scenario\n"
               "  predict <spec.json>  fit the power model on the figure "
               "sweeps at the spec's\n"
               "                       working point and predict its power\n"
               "  run <spec.json>      execute a scenario / campaign / dag "
               "spec\n"
               "  validate <spec.json> parse + expand a spec without running\n"
               "                       (--expand prints campaign point labels "
               "and dag\n"
               "                       node order)\n"
               "  serve                long-lived mode: newline-delimited "
               "spec JSON on stdin,\n"
               "                       NDJSON result events streamed as "
               "scenarios complete\n"
               "  top                  live view of a running serve socket "
               "(--socket PATH)\n"
               "                       or a metrics document "
               "(--metrics-file FILE)\n"
               "  --socket PATH    serve: accept concurrent clients on a "
               "Unix socket\n"
               "                   top: poll this serve socket's stats "
               "events\n"
               "  --metrics-file F top: re-read a --metrics-out / "
               "GPUPOWER_METRICS document\n"
               "  --interval MS    top: poll interval in milliseconds "
               "(default 1000)\n"
               "  --count N        top: stop after N polls (default 0 = "
               "until ctrl-c)\n"
               "  --plain          top: append frames instead of clearing "
               "the terminal\n"
               "  --full           serve: attach each point's spec and "
               "result documents\n"
               "  --stats-every N  serve: emit a stats event after every N "
               "completed\n"
               "                   scenarios (default 0 = on request only)\n"
               "  --bench-out FILE run: bench-document export of the run\n"
               "  --trace-out FILE Chrome-trace JSON (chrome://tracing / "
               "Perfetto) of the run\n"
               "  --metrics-out FILE  run: engine + obs metrics JSON after "
               "the spec completes\n"
               "  --csv / --json   run: CSV tables / every point's spec and "
               "result documents\n"
               "  --workers W      run/serve/predict: engine worker count\n"
               "environment (strict; malformed values exit 2):\n"
               "  GPUPOWER_WORKERS    engine worker count (--workers wins)\n"
               "  GPUPOWER_STORE_DIR  persistent result store for run/serve: "
               "completed\n"
               "                      scenarios are written back and warm "
               "replays skip\n"
               "                      every replica computation\n"
               "  GPUPOWER_STORE      'on' | 'off' — disable the store "
               "without unsetting\n"
               "                      the directory\n"
               "  GPUPOWER_TRACE      Chrome-trace output path (same as "
               "--trace-out;\n"
               "                      the flag wins when both are set)\n"
               "  GPUPOWER_METRICS    'on' | 'off' — arm the metrics "
               "registry without\n"
               "                      tracing\n",
               argv0);
  return 2;
}

constexpr std::pair<std::string_view, Verb> kVerbs[] = {
    {"discovery", kDiscovery}, {"dmon", kDmon},         {"features", kFeatures},
    {"predict", kPredict},     {"run", kRun},           {"validate", kValidate},
    {"serve", kServe},         {"top", kTop},
};

/// The verbs whose positional argument is a spec file.
constexpr unsigned kSpecFileVerbs =
    kDmon | kFeatures | kPredict | kRun | kValidate;

/// Every flag with the verbs that read it; any other verb rejects it
/// rather than ignore it.  The retired experiment flags read on no verb
/// and name the spec field that carries the same setting.
struct FlagScope {
  std::string_view flag;
  unsigned verbs;
  std::string_view spec_field;
};
constexpr FlagScope kFlagScopes[] = {
    {"--n", 0, "experiment.n"},
    {"--seeds", 0, "experiment.seeds"},
    {"--tiles", 0, "experiment.sampling.tiles"},
    {"--kfrac", 0, "experiment.sampling.k_fraction"},
    {"--gpu", 0, "experiment.gpu"},
    {"--dtype", 0, "experiment.dtype"},
    {"--pattern", 0, "experiment.pattern"},
    {"--workers", kPredict | kRun | kServe, {}},
    {"--csv", kRun, {}},
    {"--json", kRun, {}},
    {"--bench-out", kRun, {}},
    {"--metrics-out", kRun, {}},
    {"--trace-out", kDmon | kFeatures | kPredict | kRun | kValidate | kServe,
     {}},
    {"--expand", kValidate, {}},
    {"--socket", kServe | kTop, {}},
    {"--full", kServe, {}},
    {"--stats-every", kServe, {}},
    {"--metrics-file", kTop, {}},
    {"--interval", kTop, {}},
    {"--count", kTop, {}},
    {"--plain", kTop, {}},
};

bool parse_args(int argc, char** argv, Options& opts, std::string& error) {
  if (argc < 2) {
    error = "missing command";
    return false;
  }
  opts.command = argv[1];
  const auto* verb = std::find_if(
      std::begin(kVerbs), std::end(kVerbs),
      [&](const auto& entry) { return entry.first == opts.command; });
  if (verb == std::end(kVerbs)) {
    error = "unknown command '" + opts.command + "'";
    return false;
  }
  opts.verb = verb->second;
  opts.env = core::read_bench_env();
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto* scope = std::find_if(
        std::begin(kFlagScopes), std::end(kFlagScopes),
        [&](const FlagScope& entry) { return entry.flag == flag; });
    if (scope != std::end(kFlagScopes) && (scope->verbs & opts.verb) == 0) {
      error = std::string(flag) + " does not apply to " + opts.command;
      if (!scope->spec_field.empty()) {
        error += ": set " + std::string(scope->spec_field) + " in the spec";
      }
      return false;
    }
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto invalid = [&](const char* value, std::string_view expect) {
      error = "invalid " + std::string(flag) + " '" +
              (value != nullptr ? value : "") + "' (expected " +
              std::string(expect) + ")";
      return false;
    };
    // Numeric flags: the GPUPOWER_* knobs' strict whole-token parse.
    const auto int_flag = [&](long min, long max, std::string_view expect,
                              int& out) {
      const char* v = next();
      long value = 0;
      if (!core::parse_long_strict(v, min, max, value)) {
        return invalid(v, expect);
      }
      out = static_cast<int>(value);
      return true;
    };
    constexpr long kIntMax = std::numeric_limits<int>::max();
    if (flag == "--workers") {
      const char* v = next();
      if (!core::parse_workers(v, opts.env.workers)) {
        return invalid(v, core::kWorkersExpect);
      }
    } else if (flag == "--csv") {
      opts.csv = true;
    } else if (flag == "--json") {
      opts.json = true;
    } else if (flag == "--bench-out") {
      const char* v = next();
      if (!v) {
        error = "--bench-out needs a path";
        return false;
      }
      opts.bench_out = v;
    } else if (flag == "--expand") {
      opts.expand = true;
    } else if (flag == "--socket") {
      const char* v = next();
      if (!v) {
        error = "--socket needs a path";
        return false;
      }
      opts.socket_path = v;
    } else if (flag == "--full") {
      opts.full_results = true;
    } else if (flag == "--metrics-file") {
      const char* v = next();
      if (!v) {
        error = "--metrics-file needs a path";
        return false;
      }
      opts.metrics_file = v;
    } else if (flag == "--interval") {
      if (!int_flag(1, kIntMax, "positive millisecond count",
                    opts.top_interval_ms)) {
        return false;
      }
    } else if (flag == "--count") {
      if (!int_flag(0, kIntMax, "poll count >= 0", opts.top_count)) {
        return false;
      }
    } else if (flag == "--plain") {
      opts.plain = true;
    } else if (flag == "--stats-every") {
      if (!int_flag(0, kIntMax, "scenario count >= 0", opts.stats_every)) {
        return false;
      }
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (!v) {
        error = "--trace-out needs a path";
        return false;
      }
      opts.trace_out = v;
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (!v) {
        error = "--metrics-out needs a path";
        return false;
      }
      opts.metrics_out = v;
    } else if (!flag.starts_with("--") && opts.spec_path.empty() &&
               (opts.verb & kSpecFileVerbs) != 0) {
      // Only the spec-file verbs take a positional (the spec path); a
      // stray positional on any other verb stays a hard error.
      opts.spec_path = flag;
    } else {
      error = "unknown option '" + std::string(flag) + "'";
      return false;
    }
  }
  return true;
}

int spec_error(const std::string& message) {
  std::fprintf(stderr, "gpowerctl: %s\n", message.c_str());
  return 2;
}

/// Loads the positional spec of dmon/features/predict, which must be one
/// static scenario; returns 0, or 2 after printing the error.
int load_static_spec(const Options& opts, core::ExperimentConfig& config) {
  if (opts.spec_path.empty()) {
    return spec_error(opts.command + " needs <spec.json>");
  }
  const core::SpecParseResult parsed = core::load_scenario_spec(opts.spec_path);
  if (!parsed.ok) return spec_error(parsed.error);
  std::string kind(core::name(parsed.spec.config.kind()));
  if (parsed.spec.campaign) kind = "campaign";
  if (parsed.spec.dag != nullptr) kind = "dag";
  if (kind != "static") {
    return spec_error(opts.command +
                      " needs a single static scenario spec, not a " + kind +
                      " spec");
  }
  config = parsed.spec.config.experiment();
  return 0;
}

int cmd_discovery() {
  analysis::Table table(
      {"idx", "name", "TDP (W)", "memory", "SMs", "boost (MHz)"});
  for (unsigned i = 0; i < 4; ++i) {
    const auto& dev = gpusim::device(kGpuByIndex[i]);
    table.add_row({std::to_string(i), std::string(dev.name),
                   analysis::fixed(dev.tdp_w, 0),
                   std::string(gpusim::name(dev.memory)),
                   std::to_string(dev.sm_count),
                   analysis::fixed(dev.boost_clock_ghz * 1000.0, 0)});
  }
  table.print(std::cout);
  return 0;
}

core::ExperimentEngine make_engine(const Options& opts) {
  core::EngineOptions options;
  options.workers = opts.env.workers;
  // The persistent store rides on the env knobs so every engine-backed
  // verb (run, serve, predict, ...) shares one wiring: memory cache ->
  // store -> compute, write-back on completion.
  const core::StoreEnv store_env = core::read_store_env();
  if (store_env.enabled) {
    options.store = std::make_shared<core::ResultStore>(
        core::StoreOptions{store_env.dir, store_env.max_bytes});
  }
  return core::ExperimentEngine(options);
}

int cmd_dmon(const Options& opts) {
  core::ExperimentConfig config;
  if (const int status = load_static_spec(opts, config); status != 0) {
    return status;
  }
  const core::PatternSpec& spec = config.pattern;

  // Single-replica run so the sample stream is concrete, then the full
  // multi-seed summary.
  gpusim::SimOptions sim_options;
  sim_options.sampling = config.sampling;
  const gpusim::GpuSimulator sim(config.gpu, sim_options);
  const auto problem =
      gemm::GemmProblem{config.n, config.n, config.n, 1.0f, 0.0f,
                        spec.transpose_b};
  telemetry::SamplerConfig sampler;
  const gpusim::PowerReport report =
      core::with_storage_type(config.dtype, [&](auto tag) {
        const auto in = core::build_inputs<typename decltype(tag)::type>(
            spec, config.dtype, config.n, config.base_seed);
        return sim.run_gemm(problem, config.dtype, in.a, in.b);
      });
  const auto trace =
      telemetry::sample_run(report, config.effective_iterations(), sampler);

  std::printf("# gpowerctl dmon: %s, %s, pattern: %s\n",
              std::string(gpusim::name(config.gpu)).c_str(),
              std::string(numeric::name(config.dtype)).c_str(),
              core::to_dsl(spec).c_str());
  std::printf("#  t(s)   power(W)\n");
  const std::size_t stride = std::max<std::size_t>(1, trace.size() / 20);
  for (std::size_t i = 0; i < trace.size(); i += stride) {
    std::printf("  %6.2f  %8.2f\n", trace.samples()[i].t_s,
                trace.samples()[i].power_w);
  }
  // One experiment, immediately waited on: the serial reference path —
  // campaigns and training batches go through the engine.
  const core::ScenarioResult scenario = core::run_scenario(config);
  const core::ExperimentResult& result = scenario.static_result();
  std::printf(
      "\nsummary (%d seeds, first %.0f ms trimmed):\n"
      "  power        %.2f W (std %.2f)\n"
      "  iteration    %.3f ms   energy/iter %.4f J\n"
      "  clock        %.0f%%%s   alignment %.3f   weight %.3f\n",
      result.seeds, sampler.warmup_trim_s * 1000.0, result.power_w,
      result.power_std_w, result.iteration_s * 1e3, result.energy_per_iter_j,
      result.clock_frac * 100.0, result.throttled ? " (THROTTLED)" : "",
      result.alignment, result.weight_fraction);
  return 0;
}

core::DataFeatures features_for(const core::PatternSpec& spec,
                                numeric::DType dtype, std::size_t n) {
  return core::with_storage_type(dtype, [&](auto tag) {
    const auto in =
        core::build_inputs<typename decltype(tag)::type>(spec, dtype, n, 42);
    return core::extract_features(in.a, in.b);
  });
}

int cmd_features(const Options& opts) {
  core::ExperimentConfig config;
  if (const int status = load_static_spec(opts, config); status != 0) {
    return status;
  }
  const core::DataFeatures features =
      features_for(config.pattern, config.dtype, config.n);
  std::printf("pattern: %s\n", core::to_dsl(config.pattern).c_str());
  std::printf("  weight_fraction       %.4f\n", features.weight_fraction);
  std::printf("  neighbor_toggles      %.4f\n", features.neighbor_toggles);
  std::printf("  alignment             %.4f\n", features.alignment);
  std::printf("  zero_fraction         %.4f\n", features.zero_fraction);
  std::printf("  significand_activity  %.4f\n", features.significand_activity);
  std::printf("  exponent_weight       %.4f\n", features.exponent_weight);
  return 0;
}

int cmd_predict(const Options& opts) {
  core::ExperimentConfig config;
  if (const int status = load_static_spec(opts, config); status != 0) {
    return status;
  }

  // Train on a few representative sweeps at the spec's working point; the
  // whole training set runs batched on the engine (sweep points shared
  // between figures — e.g. each sweep's baseline column — are computed
  // once).
  std::printf("training input-dependent power model (%s, n=%zu)...\n",
              std::string(numeric::name(config.dtype)).c_str(), config.n);
  core::ExperimentEngine engine = make_engine(opts);
  core::ExperimentConfig training = config;
  training.seeds = 1;
  std::vector<core::SweepPoint> points;
  std::vector<core::ScenarioHandle> handles;
  for (const auto fig :
       {core::FigureId::kFig3bDistributionMean,
        core::FigureId::kFig5bSortedAligned, core::FigureId::kFig6aSparsity,
        core::FigureId::kFig4bLsbRandomized, core::FigureId::kFig6cLsbZeroed}) {
    for (const core::SweepPoint& point : core::figure_sweep(fig)) {
      training.pattern = point.spec;
      handles.push_back(engine.submit(training));
      points.push_back(point);
    }
  }
  const auto measured_handle = engine.submit(config);
  engine.wait_all();

  std::vector<core::PowerSample> samples;
  for (std::size_t i = 0; i < points.size(); ++i) {
    core::PowerSample sample;
    sample.power_w = handles[i].get().static_result().power_w;
    sample.features = features_for(points[i].spec, config.dtype, config.n);
    samples.push_back(sample);
  }
  const auto model = core::InputDependentPowerModel::fit(samples);
  const auto stats = engine.stats();
  std::printf("trained on %zu samples (%llu simulated, %llu cache hits), "
              "R^2 = %.3f\n",
              samples.size(),
              static_cast<unsigned long long>(stats.jobs_computed),
              static_cast<unsigned long long>(stats.cache_hits),
              model.r2(samples));

  const double predicted =
      model.predict(features_for(config.pattern, config.dtype, config.n));
  const core::ExperimentResult& measured =
      measured_handle.get().static_result();
  std::printf("pattern:   %s\n", core::to_dsl(config.pattern).c_str());
  std::printf("predicted: %.2f W (no kernel walk)\n", predicted);
  std::printf("simulated: %.2f W (error %+.2f W)\n", measured.power_w,
              predicted - measured.power_w);
  return 0;
}

// --- spec front end ---------------------------------------------------------

/// Metric columns of a campaign table / bench document, per scenario kind.
std::vector<std::string> kind_metric_headers(core::ScenarioKind kind) {
  switch (kind) {
    case core::ScenarioKind::kStatic:
      return {"power (W)", "std (W)", "iter (ms)", "energy/iter (J)"};
    case core::ScenarioKind::kDvfs:
      return {"energy (J)", "avg W", "completion (s)", "max backlog (ms)"};
    case core::ScenarioKind::kFleet:
      return {"energy (J)", "avg W", "completion (s)", "max backlog (ms)",
              "p99 backlog (ms)"};
  }
  return {};
}

std::vector<double> kind_metric_values(const core::ScenarioResult& result) {
  switch (result.kind()) {
    case core::ScenarioKind::kStatic: {
      const core::ExperimentResult& r = result.static_result();
      return {r.power_w, r.power_std_w, r.iteration_s * 1e3,
              r.energy_per_iter_j};
    }
    case core::ScenarioKind::kDvfs: {
      const core::DvfsResult& r = result.dvfs();
      return {r.energy_j, r.avg_power_w, r.completion_s,
              r.backlog_max_s * 1e3};
    }
    case core::ScenarioKind::kFleet: {
      const core::FleetResult& r = result.fleet();
      return {r.energy_j, r.avg_power_w, r.completion_s,
              r.backlog_max_s * 1e3, r.backlog_p99_s * 1e3};
    }
  }
  return {};
}

/// A point-per-row table with the kind's metric columns; printed as CSV
/// under --csv, aligned otherwise.
analysis::Table metric_table(core::ScenarioKind kind) {
  std::vector<std::string> headers{"point"};
  for (std::string& header : kind_metric_headers(kind)) {
    headers.push_back(std::move(header));
  }
  return analysis::Table(std::move(headers));
}

void print_table(const Options& opts, const analysis::Table& table) {
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Bench-document metrics (names aligned with the committed BENCH_*.json
/// documents so `bench_export --compare` gates campaign runs directly).
/// One source of truth with serve's result events: both read
/// scenario_summary_metrics, so CI can diff streamed results against
/// --bench-out documents key by key.
std::vector<tools::BenchMetric> kind_bench_metrics(
    const core::ScenarioResult& result) {
  std::vector<tools::BenchMetric> metrics;
  for (const auto& [metric, value] : core::scenario_summary_metrics(result)) {
    metrics.push_back({metric, value});
  }
  return metrics;
}

void print_engine_stats(const core::ExperimentEngine& engine) {
  std::printf("\nengine: %s\n", core::engine_stats_line(engine).c_str());
}

/// Writes the bench trajectory document for a finished run; shared by the
/// campaign and single-scenario paths (and every output mode — --json
/// must not swallow --bench-out).
int write_bench_out(const Options& opts, const std::string& bench_name,
                    const std::string& protocol,
                    const std::vector<tools::BenchCase>& cases) {
  const auto doc = tools::bench_document(bench_name, protocol, cases);
  if (!tools::write_bench_json(opts.bench_out, doc)) {
    return spec_error("cannot write " + opts.bench_out);
  }
  std::fprintf(stderr, "wrote %s\n", opts.bench_out.c_str());
  return 0;
}

/// Flushes the run's observability artifacts: the metrics document when
/// --metrics-out was given, and the Chrome trace eagerly (instead of at
/// exit) so the "wrote ..." message and any write failure land while the
/// user is still watching.  Call after the engine has gone idle.
int write_obs_outputs(const Options& opts, core::ExperimentEngine& engine) {
  if (!opts.metrics_out.empty()) {
    const std::string text =
        engine.metrics_json().dump(/*pretty=*/true) + "\n";
    std::string error;
    if (!core::atomic_write_text(opts.metrics_out, text, &error)) {
      return spec_error("cannot write " + opts.metrics_out + ": " + error);
    }
    std::fprintf(stderr, "wrote %s\n", opts.metrics_out.c_str());
  }
  if (core::obs::tracing_enabled()) {
    std::string error;
    if (!core::obs::flush_trace(&error)) {
      return spec_error("cannot write trace: " + error);
    }
    std::fprintf(stderr, "wrote %s\n", core::obs::trace_path().c_str());
  }
  return 0;
}

void print_scenario_summary(const core::ScenarioConfig& config,
                            const core::ScenarioResult& result) {
  const std::vector<std::string> headers = kind_metric_headers(config.kind());
  const std::vector<double> values = kind_metric_values(result);
  std::printf("# %s scenario, %d seed(s)\n",
              std::string(core::name(config.kind())).c_str(), config.seeds());
  for (std::size_t i = 0; i < headers.size(); ++i) {
    std::printf("  %-18s %.4f\n", headers[i].c_str(), values[i]);
  }
}

/// --expand detail for one dag node: what the node will run, without
/// running it (campaign grids of run nodes expand from the pre-substitution
/// document, which parses stand-alone by the dag contract).
int expand_dag_node(const core::dag::DagSpec& dag,
                    const core::dag::DagNode& node) {
  switch (node.kind) {
    case core::dag::DagNodeKind::kScenario:
      std::printf("    1 point\n");
      return 0;
    case core::dag::DagNodeKind::kCampaign: {
      const core::SpecParseResult parsed = core::parse_scenario_spec(node.run);
      if (!parsed.ok) return spec_error(parsed.error);
      std::vector<core::CampaignPoint> points;
      std::string error;
      if (!core::expand_campaign(parsed.spec, points, error)) {
        return spec_error("node '" + node.name + "': " + error);
      }
      std::printf("    %zu point(s)\n", points.size());
      for (const core::CampaignPoint& point : points) {
        std::printf("      %s\n", point.label.c_str());
      }
      return 0;
    }
    case core::dag::DagNodeKind::kReduce:
      std::printf("    %s over '%s', metric %s%s%s\n", node.reduce.op.c_str(),
                  dag.nodes[node.reduce.over].name.c_str(),
                  node.reduce.metric.c_str(),
                  node.reduce.against.empty() ? "" : " against ",
                  node.reduce.against.c_str());
      return 0;
    case core::dag::DagNodeKind::kSearch:
      std::printf("    bisect %s in [%g, %g] until %s %s %g (tolerance %g)\n",
                  node.search.field.c_str(), node.search.lo, node.search.hi,
                  node.search.metric.c_str(), node.search.predicate.c_str(),
                  node.search.target, node.search.tolerance);
      return 0;
  }
  return 0;
}

int validate_dag(const Options& opts, const core::ScenarioSpec& spec) {
  const core::dag::DagSpec& dag = *spec.dag;
  std::size_t run_nodes = 0;
  for (const core::dag::DagNode& node : dag.nodes) {
    if (node.kind == core::dag::DagNodeKind::kScenario ||
        node.kind == core::dag::DagNodeKind::kCampaign) {
      ++run_nodes;
    }
  }
  std::string order;
  for (const std::size_t index : dag.order) {
    if (!order.empty()) order += " -> ";
    order += dag.nodes[index].name;
  }
  std::printf(
      "spec OK: dag '%s', %zu node(s) (%zu run, %zu derived), order: %s\n",
      dag.name.empty() ? "(unnamed)" : dag.name.c_str(), dag.nodes.size(),
      run_nodes, dag.nodes.size() - run_nodes, order.c_str());
  if (!opts.expand) return 0;
  for (const std::size_t index : dag.order) {
    const core::dag::DagNode& node = dag.nodes[index];
    std::printf("  node %s (%s)\n", node.name.c_str(),
                std::string(core::dag::name(node.kind)).c_str());
    if (const int status = expand_dag_node(dag, node); status != 0) {
      return status;
    }
  }
  return 0;
}

int cmd_validate(const Options& opts) {
  if (opts.spec_path.empty()) return spec_error("validate needs <spec.json>");
  const core::SpecParseResult parsed = core::load_scenario_spec(opts.spec_path);
  if (!parsed.ok) return spec_error(parsed.error);
  if (parsed.spec.dag != nullptr) return validate_dag(opts, parsed.spec);
  if (!parsed.spec.campaign) {
    std::printf("spec OK: %s scenario, %d seed(s)\n",
                std::string(core::name(parsed.spec.config.kind())).c_str(),
                parsed.spec.config.seeds());
    return 0;
  }
  std::vector<core::CampaignPoint> points;
  std::string error;
  if (!core::expand_campaign(parsed.spec, points, error)) {
    return spec_error(error);
  }
  std::string axes;
  for (const core::CampaignAxis& axis : parsed.spec.axes) {
    if (!axes.empty()) axes += " x ";
    axes += axis.field + "(" + std::to_string(axis.values.size()) + ")";
  }
  std::printf("spec OK: campaign '%s', %zu point(s) of kind %s, axes: %s\n",
              parsed.spec.name.empty() ? "(unnamed)"
                                       : parsed.spec.name.c_str(),
              points.size(),
              std::string(core::name(points.front().config.kind())).c_str(),
              axes.c_str());
  if (opts.expand) {
    for (const core::CampaignPoint& point : points) {
      std::printf("  %s\n", point.label.c_str());
    }
  }
  return 0;
}

int run_campaign(const Options& opts, const core::ScenarioSpec& spec) {
  core::ExperimentEngine engine = make_engine(opts);
  core::CampaignRun run;
  std::string error;
  if (!core::submit_campaign(engine, spec, run, error)) {
    return spec_error(error);
  }
  engine.wait_all();

  if (!opts.bench_out.empty()) {
    std::vector<tools::BenchCase> cases;
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      tools::BenchCase bench_case;
      bench_case.name = run.points[i].label;
      bench_case.metrics = kind_bench_metrics(run.handles[i].get());
      cases.push_back(std::move(bench_case));
    }
    const int status = write_bench_out(
        opts, spec.name.empty() ? "campaign" : spec.name, spec.protocol,
        cases);
    if (status != 0) return status;
  }
  if (const int status = write_obs_outputs(opts, engine); status != 0) {
    return status;
  }

  if (opts.json) {
    analysis::JsonValue doc = analysis::JsonValue::object();
    doc.set("campaign", analysis::JsonValue::string(spec.name));
    analysis::JsonValue series = analysis::JsonValue::array();
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      analysis::JsonValue entry = analysis::JsonValue::object();
      entry.set("label", analysis::JsonValue::string(run.points[i].label));
      series.push(core::scenario_to_json(
          run.points[i].config, run.handles[i].get(), std::move(entry)));
    }
    doc.set("points", std::move(series));
    std::printf("%s\n", doc.dump(/*pretty=*/true).c_str());
    return 0;
  }

  analysis::Table table = metric_table(run.points.front().config.kind());
  for (std::size_t i = 0; i < run.points.size(); ++i) {
    table.add_row(run.points[i].label,
                  kind_metric_values(run.handles[i].get()), 3);
  }
  print_table(opts, table);
  print_engine_stats(engine);
  return 0;
}

/// Prints the one-line summary of a derived (reduce/search) node from its
/// result document.
void print_derived_node_summary(const core::dag::DagNodeRun& node) {
  const analysis::JsonValue* value = node.doc.find("value");
  const auto number = [&](std::string_view key) {
    const analysis::JsonValue* v = node.doc.find(key);
    return v != nullptr ? v->as_number() : 0.0;
  };
  if (node.kind == core::dag::DagNodeKind::kReduce) {
    const analysis::JsonValue* op = node.doc.find("op");
    const analysis::JsonValue* over = node.doc.find("over");
    const analysis::JsonValue* metric = node.doc.find("metric");
    const analysis::JsonValue* against = node.doc.find("against");
    std::printf("  %s of %s%s%s over '%s' = %.6g",
                op != nullptr ? op->as_string().c_str() : "?",
                metric != nullptr ? metric->as_string().c_str() : "?",
                against != nullptr ? " against " : "",
                against != nullptr ? against->as_string().c_str() : "",
                over != nullptr ? over->as_string().c_str() : "?",
                value != nullptr ? value->as_number() : 0.0);
    if (against != nullptr) {
      std::printf(" (spearman %.6g)", number("spearman"));
    } else if (node.doc.find("sd") != nullptr) {
      std::printf(" (sd %.6g, min %.6g, max %.6g, n %.0f)", number("sd"),
                  number("min"), number("max"), number("n"));
    }
    std::printf("\n");
    return;
  }
  const analysis::JsonValue* field = node.doc.find("field");
  const analysis::JsonValue* iterations = node.doc.find("iterations");
  std::printf("  %s = %.17g (%d evaluation(s))\n",
              field != nullptr ? field->as_string().c_str() : "?",
              value != nullptr ? value->as_number() : 0.0,
              iterations != nullptr ? static_cast<int>(iterations->as_number())
                                    : 0);
}

/// Executes a dag spec end to end, then reports node by node in
/// declaration order.  Run-node --json entries mirror the campaign --json
/// point shape exactly, so a dag node can be diffed byte-for-byte against
/// the equivalent stand-alone campaign run.
int run_dag_spec(const Options& opts, const core::ScenarioSpec& spec) {
  core::ExperimentEngine engine = make_engine(opts);
  core::dag::DagRun run;
  std::string error;
  if (!core::dag::run_dag(engine, *spec.dag, run, error)) {
    return spec_error(error);
  }
  engine.wait_all();

  if (!opts.bench_out.empty()) {
    std::vector<tools::BenchCase> cases;
    for (const core::dag::DagNodeRun& node : run.nodes) {
      for (const core::dag::DagNodePoint& point : node.points) {
        tools::BenchCase bench_case;
        bench_case.name = node.points.size() == 1
                              ? node.name
                              : node.name + "/" + point.label;
        bench_case.metrics = kind_bench_metrics(point.result);
        cases.push_back(std::move(bench_case));
      }
    }
    const int status = write_bench_out(
        opts, spec.name.empty() ? "dag" : spec.name, spec.protocol, cases);
    if (status != 0) return status;
  }
  if (const int status = write_obs_outputs(opts, engine); status != 0) {
    return status;
  }

  if (opts.json) {
    analysis::JsonValue doc = analysis::JsonValue::object();
    doc.set("dag", analysis::JsonValue::string(spec.name));
    analysis::JsonValue nodes = analysis::JsonValue::array();
    for (const core::dag::DagNodeRun& node : run.nodes) {
      analysis::JsonValue entry = analysis::JsonValue::object();
      entry.set("name", analysis::JsonValue::string(node.name))
          .set("kind",
               analysis::JsonValue::string(core::dag::name(node.kind)));
      if (!node.points.empty()) {
        analysis::JsonValue points = analysis::JsonValue::array();
        for (const core::dag::DagNodePoint& point : node.points) {
          analysis::JsonValue point_doc = analysis::JsonValue::object();
          point_doc.set("label", analysis::JsonValue::string(point.label));
          points.push(core::scenario_to_json(point.config, point.result,
                                             std::move(point_doc)));
        }
        entry.set("points", std::move(points));
      }
      if (node.kind == core::dag::DagNodeKind::kReduce ||
          node.kind == core::dag::DagNodeKind::kSearch) {
        entry.set("result", node.doc);
      }
      nodes.push(std::move(entry));
    }
    doc.set("nodes", std::move(nodes));
    std::printf("%s\n", doc.dump(/*pretty=*/true).c_str());
    return 0;
  }

  for (const core::dag::DagNodeRun& node : run.nodes) {
    std::printf("# node %s (%s)\n", node.name.c_str(),
                std::string(core::dag::name(node.kind)).c_str());
    if (node.kind == core::dag::DagNodeKind::kReduce ||
        node.kind == core::dag::DagNodeKind::kSearch) {
      print_derived_node_summary(node);
    }
    if (node.points.empty()) continue;
    analysis::Table table = metric_table(node.points.front().config.kind());
    for (const core::dag::DagNodePoint& point : node.points) {
      table.add_row(point.label, kind_metric_values(point.result), 3);
    }
    print_table(opts, table);
  }
  print_engine_stats(engine);
  return 0;
}

int cmd_run(const Options& opts) {
  if (opts.spec_path.empty()) return spec_error("run needs <spec.json>");
  const core::SpecParseResult parsed = core::load_scenario_spec(opts.spec_path);
  if (!parsed.ok) return spec_error(parsed.error);
  if (parsed.spec.dag != nullptr) return run_dag_spec(opts, parsed.spec);
  if (parsed.spec.campaign) return run_campaign(opts, parsed.spec);

  core::ExperimentEngine engine = make_engine(opts);
  const core::ScenarioHandle handle = engine.submit(parsed.spec.config);
  const core::ScenarioResult& result = handle.get();
  const std::string kind_label(core::name(parsed.spec.config.kind()));
  if (!opts.bench_out.empty()) {
    tools::BenchCase bench_case;
    bench_case.name = kind_label;
    bench_case.metrics = kind_bench_metrics(result);
    const int status = write_bench_out(opts, "scenario", "", {bench_case});
    if (status != 0) return status;
  }
  if (const int status = write_obs_outputs(opts, engine); status != 0) {
    return status;
  }
  if (opts.json) {
    std::printf("%s\n", core::scenario_to_json(parsed.spec.config, result)
                            .dump(/*pretty=*/true)
                            .c_str());
    return 0;
  }
  if (opts.csv) {
    // One point: the campaign table's header and a row labelled by kind.
    analysis::Table table = metric_table(parsed.spec.config.kind());
    table.add_row(kind_label, kind_metric_values(result), 3);
    print_table(opts, table);
  } else {
    print_scenario_summary(parsed.spec.config, result);
  }
  print_engine_stats(engine);
  return 0;
}

/// Long-lived service mode: one engine + one store, any number of clients.
int cmd_serve(const Options& opts) {
  core::ExperimentEngine engine = make_engine(opts);
  const core::StoreEnv store_env = core::read_store_env();
  core::ServeOptions serve_options;
  serve_options.full_results = opts.full_results;
  serve_options.stats_every = opts.stats_every;
  // Stats events embed metrics_json(); arm the registry so the per-kind
  // timings in those events are live even without GPUPOWER_METRICS=on.
  core::obs::set_metrics_enabled(true);

  std::fprintf(stderr, "gpowerctl serve: %d worker(s), store %s\n",
               engine.workers(),
               store_env.enabled ? store_env.dir.c_str() : "off");
  if (!opts.socket_path.empty()) {
    std::fprintf(stderr, "listening on %s\n", opts.socket_path.c_str());
    std::string error;
    (void)core::serve_unix_socket(engine, opts.socket_path, serve_options,
                                  error);
    std::fprintf(stderr, "gpowerctl serve: %s\n", error.c_str());
    return 1;
  }

  const long requests =
      core::serve_session(engine, std::cin, std::cout, serve_options);
  std::fprintf(stderr, "served %ld request(s); engine: %s\n", requests,
               core::engine_stats_line(engine).c_str());
  return 0;
}

// --- gpowerctl top: live operational view ----------------------------------

/// One polled snapshot: the metrics_json() document plus — in socket mode
/// — the live per-session rows embedded in the serve stats event.
struct TopSample {
  analysis::JsonValue metrics;
  analysis::JsonValue sessions = analysis::JsonValue::array();
  bool have_sessions = false;
};

/// Nested lookup that tolerates absent keys and non-objects: the metrics
/// schema is stable, but `top` must render a partial document (e.g. a
/// metrics file written mid-run by an older binary) instead of aborting.
const analysis::JsonValue* json_member(const analysis::JsonValue* value,
                                       std::string_view key) {
  return value != nullptr ? value->find(key) : nullptr;
}

double json_number(const analysis::JsonValue* value, double fallback = 0.0) {
  return value != nullptr ? value->as_number(fallback) : fallback;
}

/// Minimal NDJSON client for a `gpowerctl serve --socket` endpoint: one
/// connection for the whole top session (so the serve side keeps ONE
/// session row for the viewer instead of one per poll), a stats request
/// per poll, and a line-buffered reader that skips any interleaved events
/// until the stats event arrives.
class ServeStatsClient {
 public:
  ServeStatsClient() = default;
  ServeStatsClient(const ServeStatsClient&) = delete;
  ServeStatsClient& operator=(const ServeStatsClient&) = delete;
  ~ServeStatsClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect_to(const std::string& path, std::string& error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      error = "socket path too long: " + path;
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      error = path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  bool poll(TopSample& sample, std::string& error) {
    static constexpr char kRequest[] = "{\"cmd\":\"stats\"}\n";
    const char* data = kRequest;
    std::size_t remaining = sizeof kRequest - 1;
    while (remaining > 0) {
      const ssize_t n = ::write(fd_, data, remaining);
      if (n < 0) {
        if (errno == EINTR) continue;
        error = std::string("write: ") + std::strerror(errno);
        return false;
      }
      data += n;
      remaining -= static_cast<std::size_t>(n);
    }
    // Any event may interleave ahead of our stats reply (periodic
    // --stats-every emissions are themselves stats events and count).
    for (;;) {
      std::string line;
      if (!read_line(line, error)) return false;
      if (line.empty()) continue;
      const analysis::JsonParseResult parsed = analysis::json_parse(line);
      if (!parsed.ok || !parsed.value.is_object()) continue;
      const analysis::JsonValue* type = parsed.value.find("type");
      if (type == nullptr || !type->is_string() ||
          type->as_string() != "stats") {
        continue;
      }
      if (const analysis::JsonValue* metrics = parsed.value.find("metrics")) {
        sample.metrics = *metrics;
      }
      if (const analysis::JsonValue* sessions = parsed.value.find("sessions");
          sessions != nullptr && sessions->is_array()) {
        sample.sessions = *sessions;
        sample.have_sessions = true;
      }
      return true;
    }
  }

 private:
  bool read_line(std::string& line, std::string& error) {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        error = std::string("read: ") + std::strerror(errno);
        return false;
      }
      if (n == 0) {
        error = "server closed the connection";
        return false;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

bool read_metrics_file(const std::string& path, TopSample& sample,
                       std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  analysis::JsonParseResult parsed = analysis::json_parse(text);
  if (!parsed.ok) {
    error = path + ": " + parsed.error;
    return false;
  }
  sample.metrics = std::move(parsed.value);
  return true;
}

/// Renders one frame.  `previous` is last poll's metrics document (nullptr
/// on the first frame) — counter deltas and rates are computed against it,
/// with elapsed time measured here (obs::now_ns) rather than trusting the
/// producer's clock.
void render_top(const Options& opts, const TopSample& sample,
                const analysis::JsonValue* previous, double dt_s, long poll,
                const std::string& source) {
  if (!opts.plain) {
    std::printf("\x1b[2J\x1b[H");
  } else if (poll > 1) {
    std::printf("\n");
  }
  const analysis::JsonValue* engine = json_member(&sample.metrics, "engine");
  const analysis::JsonValue* prev_engine = json_member(previous, "engine");
  const analysis::JsonValue* obs = json_member(&sample.metrics, "obs");
  std::printf("gpowerctl top — %s   poll %ld, every %d ms\n", source.c_str(),
              poll, opts.top_interval_ms);
  std::printf("workers %.0f   queue depth %.0f\n\n",
              json_number(json_member(engine, "workers")),
              json_number(json_member(
                  json_member(obs, "gauges"), "engine.queue_depth")));

  // Engine counters with per-poll deltas.  The first frame has no
  // baseline: deltas and rates render as 0 rather than as the totals.
  static constexpr const char* kCounters[] = {
      "submitted",    "cache_hits", "jobs_computed",
      "replicas_run", "store_hits", "store_writes"};
  analysis::Table counters({"counter", "total", "delta", "per s"});
  for (const char* key : kCounters) {
    const double now = json_number(json_member(engine, key));
    const double before =
        prev_engine != nullptr ? json_number(json_member(prev_engine, key), now)
                               : now;
    const double delta = now - before;
    counters.add_row(key, {now, delta, dt_s > 0.0 ? delta / dt_s : 0.0}, 1);
  }
  counters.print(std::cout);

  std::printf(
      "\ntime (s): compute %.3f   queue wait %.3f   reduce %.3f   "
      "store r/w %.3f/%.3f\n",
      json_number(json_member(engine, "compute_seconds")),
      json_number(json_member(engine, "queue_wait_seconds")),
      json_number(json_member(engine, "reduce_seconds")),
      json_number(json_member(engine, "store_read_seconds")),
      json_number(json_member(engine, "store_write_seconds")));

  if (const analysis::JsonValue* latency = json_member(
          json_member(obs, "histograms"), "engine.replica_latency_ns")) {
    std::printf(
        "replica latency: p50 %.1f us   p95 %.1f us   p99 %.1f us   "
        "max %.1f us   (%.0f sample(s))\n",
        json_number(json_member(latency, "p50_ns")) * 1e-3,
        json_number(json_member(latency, "p95_ns")) * 1e-3,
        json_number(json_member(latency, "p99_ns")) * 1e-3,
        json_number(json_member(latency, "max_ns")) * 1e-3,
        json_number(json_member(latency, "count")));
  }
  const double dropped = json_number(
      json_member(json_member(obs, "gauges"), "obs.ring_dropped_total"));
  if (dropped > 0.0) {
    std::printf("WARNING: %.0f trace event(s) dropped (ring full)\n", dropped);
  }

  // Per-kind breakdown, kinds that have seen traffic only.
  if (const analysis::JsonValue* by_kind = json_member(engine, "by_kind")) {
    analysis::Table kinds({"kind", "submitted", "computed", "replicas",
                           "cache hits", "store hits", "compute (s)"});
    bool any = false;
    for (const std::string& kind : by_kind->keys()) {
      const analysis::JsonValue* k = by_kind->find(kind);
      if (json_number(json_member(k, "submitted")) == 0.0) continue;
      any = true;
      kinds.add_row(kind,
                    {json_number(json_member(k, "submitted")),
                     json_number(json_member(k, "jobs_computed")),
                     json_number(json_member(k, "replicas_run")),
                     json_number(json_member(k, "cache_hits")),
                     json_number(json_member(k, "store_hits")),
                     json_number(json_member(k, "compute_seconds"))},
                    2);
    }
    if (any) {
      std::printf("\n");
      kinds.print(std::cout);
    }
  }

  // Serve totals (process-wide obs counters) + the live session rows.
  if (const analysis::JsonValue* counters_block =
          json_member(obs, "counters");
      json_member(counters_block, "serve.requests") != nullptr) {
    std::printf(
        "\nserve: %.0f session(s) live, %.0f total   requests %.0f   "
        "results %.0f   dedup %.0f   store hits %.0f   streamed %.1f KiB\n",
        json_number(json_member(json_member(obs, "gauges"),
                                "serve.active_sessions")),
        json_number(json_member(counters_block, "serve.sessions")),
        json_number(json_member(counters_block, "serve.requests")),
        json_number(json_member(counters_block, "serve.results")),
        json_number(json_member(counters_block, "serve.dedup_hits")),
        json_number(json_member(counters_block, "serve.store_hits")),
        json_number(json_member(counters_block, "serve.bytes_streamed")) /
            1024.0);
  }
  if (sample.have_sessions && sample.sessions.size() > 0) {
    analysis::Table sessions({"session", "age (s)", "requests", "points",
                              "results", "errors", "dedup", "store",
                              "KiB out"});
    for (std::size_t i = 0; i < sample.sessions.size(); ++i) {
      const analysis::JsonValue& s = sample.sessions.at(i);
      sessions.add_row(
          "#" + std::to_string(
                    static_cast<long long>(json_number(s.find("id")))),
          {json_number(s.find("age_s")), json_number(s.find("requests")),
           json_number(s.find("points")), json_number(s.find("results")),
           json_number(s.find("errors")), json_number(s.find("dedup_hits")),
           json_number(s.find("store_hits")),
           json_number(s.find("bytes_streamed")) / 1024.0},
          1);
    }
    std::printf("\n");
    sessions.print(std::cout);
  }
  std::fflush(stdout);
}

/// Live terminal view: polls a serve socket's stats events (one persistent
/// connection, so the viewer is a single session server-side) or re-reads
/// a metrics JSON document, and renders deltas between polls.
int cmd_top(const Options& opts) {
  const bool socket_mode = !opts.socket_path.empty();
  if (socket_mode == !opts.metrics_file.empty()) {
    return spec_error(
        "top needs exactly one of --socket PATH or --metrics-file FILE");
  }
  std::string error;
  ServeStatsClient client;
  if (socket_mode && !client.connect_to(opts.socket_path, error)) {
    return spec_error("cannot connect: " + error);
  }
  const std::string source = socket_mode
                                 ? "serve " + opts.socket_path
                                 : "metrics file " + opts.metrics_file;
  analysis::JsonValue previous;
  bool have_previous = false;
  std::int64_t previous_ns = 0;
  for (long poll = 1; opts.top_count == 0 || poll <= opts.top_count; ++poll) {
    if (poll > 1) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.top_interval_ms));
    }
    TopSample sample;
    const bool ok = socket_mode ? client.poll(sample, error)
                                : read_metrics_file(opts.metrics_file, sample,
                                                    error);
    if (!ok) return spec_error(error);
    const std::int64_t now_ns = core::obs::now_ns();
    const double dt_s =
        have_previous ? static_cast<double>(now_ns - previous_ns) * 1e-9 : 0.0;
    render_top(opts, sample, have_previous ? &previous : nullptr, dt_s, poll,
               source);
    previous = std::move(sample.metrics);
    have_previous = true;
    previous_ns = now_ns;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string error;
  if (!parse_args(argc, argv, opts, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }
  // Flags win over the GPUPOWER_TRACE / GPUPOWER_METRICS environment:
  // apply them before any engine construction runs obs::init_from_env(),
  // which only fills still-default knobs.
  if (!opts.trace_out.empty()) core::obs::set_trace_path(opts.trace_out);
  if (!opts.metrics_out.empty()) core::obs::set_metrics_enabled(true);
  switch (opts.verb) {
    case kDiscovery: return cmd_discovery();
    case kDmon: return cmd_dmon(opts);
    case kFeatures: return cmd_features(opts);
    case kPredict: return cmd_predict(opts);
    case kRun: return cmd_run(opts);
    case kValidate: return cmd_validate(opts);
    case kServe: return cmd_serve(opts);
    case kTop: return cmd_top(opts);
  }
  return usage(argv[0]);
}
