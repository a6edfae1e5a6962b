// Shared helpers for the bench binaries that are not plain figure sweeps
// (Figs. 1, 2, 7, 8 and the ablations): the protocol preamble, an engine
// with metrics armed, and a figure sweep submitted over a base config.
// The Figs. 3-6 sweeps themselves are the campaign nodes of
// examples/specs/paper_figures.json, run with `gpowerctl run`.
//
// Environment knobs (see core/env.hpp): GPUPOWER_N, GPUPOWER_SEEDS,
// GPUPOWER_TILES, GPUPOWER_KFRAC, GPUPOWER_WORKERS.  Defaults favour CI
// speed; GPUPOWER_N=2048 GPUPOWER_SEEDS=10 reproduces the paper's protocol.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

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

}  // namespace gpupower::bench
