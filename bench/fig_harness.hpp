// Shared harness for the figure-regeneration benches: one bench binary per
// paper figure, each printing the figure's series (power in watts per sweep
// point, one column per datatype) exactly as the paper plots them.
//
// The harness runs on the ExperimentEngine: every (sweep point x datatype)
// cell is submitted up front, fans out across the worker pool, and shared
// points (e.g. the baseline column that several figures repeat) are served
// from the engine cache.  Results are bit-identical to the serial path.
//
// Environment knobs (see core/env.hpp): GPUPOWER_N, GPUPOWER_SEEDS,
// GPUPOWER_TILES, GPUPOWER_KFRAC, GPUPOWER_WORKERS, GPUPOWER_CSV.  Defaults
// favour CI speed; GPUPOWER_N=2048 GPUPOWER_SEEDS=10 reproduces the paper's
// protocol.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "core/config_builder.hpp"
#include "core/engine.hpp"
#include "core/env.hpp"
#include "core/figures.hpp"
#include "core/obs/obs.hpp"

namespace gpupower::bench {

inline void print_preamble(const core::BenchEnv& env, std::string_view title) {
  std::printf("%s\n", std::string(title).c_str());
  std::printf(
      "  protocol: %zux%zu GEMM on simulated A100 PCIe, %d seed(s), "
      "%zu sampled warp tiles, k-fraction %.2f\n",
      env.n, env.n, env.seeds, env.tiles, env.k_fraction);
  if (env.n < 2048) {
    std::printf(
        "  note: N<2048 leaves SMs idle (partial occupancy), deflating "
        "absolute watts;\n"
        "  run GPUPOWER_N=2048 GPUPOWER_SEEDS=10 for paper-protocol "
        "levels.\n");
  }
  std::printf("\n");
}

inline core::ExperimentEngine make_engine(const core::BenchEnv& env) {
  // Bench engines always run with the metrics registry armed: the timing
  // breakdown (compute/queue-wait/store seconds) is part of what a bench
  // exists to measure, and the armed cost is a relaxed atomic per event.
  core::obs::set_metrics_enabled(true);
  core::EngineOptions options;
  options.workers = env.workers;
  return core::ExperimentEngine(options);
}

inline void print_engine_stats(const core::ExperimentEngine& engine) {
  std::printf("\nengine: %s\n", core::engine_stats_line(engine).c_str());
}

/// Submits every point of figure `id`'s sweep over `base` (each point's
/// pattern replaces base.pattern); handles come back in sweep order.
inline std::vector<core::ScenarioHandle> submit_figure(
    core::ExperimentEngine& engine, core::FigureId id,
    const core::ExperimentConfig& base) {
  std::vector<core::ScenarioHandle> handles;
  for (const core::SweepPoint& point : core::figure_sweep(id)) {
    core::ExperimentConfig config = base;
    config.pattern = point.spec;
    handles.push_back(engine.submit(config));
  }
  return handles;
}

/// Runs a figure's sweep for all four datatypes through the engine and
/// prints the series table.  Returns the process exit code.
inline int run_figure(core::FigureId id) {
  // One span over the whole figure (submit fan-out through table print):
  // with GPUPOWER_TRACE set the per-scenario engine spans nest under it.
  core::obs::Span figure_span("bench.figure");
  const core::BenchEnv env = core::read_bench_env();
  print_preamble(env, core::figure_name(id));

  core::ExperimentEngine engine = make_engine(env);

  // One sweep per datatype, all in flight at once.
  std::vector<std::vector<core::ScenarioHandle>> runs;
  for (const auto dtype : numeric::kAllDTypes) {
    runs.push_back(submit_figure(
        engine, id,
        core::ExperimentConfigBuilder().dtype(dtype).env(env).build()));
  }
  engine.wait_all();

  std::vector<std::string> headers{std::string(core::figure_axis(id))};
  for (const auto dtype : numeric::kAllDTypes) {
    headers.push_back(std::string(numeric::name(dtype)) + " (W)");
  }
  analysis::Table table(std::move(headers));

  const std::vector<core::SweepPoint> points = core::figure_sweep(id);
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<double> row;
    for (const auto& handles : runs) {
      row.push_back(handles[p].get().static_result().power_w);
    }
    table.add_row(points[p].label, row, 1);
  }

  table.print(std::cout);
  if (env.csv) {
    std::printf("\nCSV:\n");
    table.print_csv(std::cout);
  }
  print_engine_stats(engine);
  return 0;
}

}  // namespace gpupower::bench
