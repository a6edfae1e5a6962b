// Fig. 1: average iteration runtime by datatype across all experiments.
// The paper's point is that runtimes are *input-independent* (microsecond-
// level consistency), since every experiment launches the same CUTLASS
// kernel on the same shape.  This bench runs every figure sweep and reports
// mean iteration runtime per datatype plus the spread across experiments —
// the "error bars a magnitude smaller" observation.  All experiment cells
// are submitted to the ExperimentEngine up front and collected in order.
#include <cstdio>
#include <iostream>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "fig_harness.hpp"

int main() {
  using namespace gpupower;
  const core::BenchEnv env = core::read_bench_env();
  bench::print_preamble(env, "Fig. 1: average iteration runtime by datatype");

  core::ExperimentEngine engine = bench::make_engine(env);

  // Pool one representative point from every figure sweep plus the
  // baseline, mirroring "across all experiments".
  std::vector<core::PatternSpec> specs{core::baseline_gaussian_spec()};
  for (const auto fig : core::kAllFigures) {
    const auto sweep = core::figure_sweep(fig);
    specs.push_back(sweep[sweep.size() / 2].spec);
  }

  std::vector<std::vector<core::ScenarioHandle>> handles_by_dtype;
  for (const auto dtype : numeric::kAllDTypes) {
    std::vector<core::ScenarioHandle> handles;
    for (const auto& spec : specs) {
      const auto config = core::ExperimentConfigBuilder()
                              .dtype(dtype)
                              .env(env)
                              .seeds(1)  // runtime is deterministic given shape
                              .pattern(spec)
                              .build();
      handles.push_back(engine.submit(config));
    }
    handles_by_dtype.push_back(std::move(handles));
  }
  engine.wait_all();

  analysis::Table table({"datatype", "mean iter (ms)", "spread (us)",
                         "experiments"});
  for (std::size_t d = 0; d < std::size(numeric::kAllDTypes); ++d) {
    analysis::RunningStats runtime_ms;
    for (const auto& handle : handles_by_dtype[d]) {
      runtime_ms.add(handle.get().static_result().iteration_s * 1e3);
    }
    table.add_row(std::string(numeric::name(numeric::kAllDTypes[d])),
                  {runtime_ms.mean(),
                   (runtime_ms.max() - runtime_ms.min()) * 1e3,
                   static_cast<double>(runtime_ms.count())},
                  3);
  }
  table.print(std::cout);
  std::printf(
      "\nRuntime depends only on shape and datapath throughput, never on the\n"
      "input bits — the spread column is the max-min across experiments.\n");
  bench::print_engine_stats(engine);
  return 0;
}
