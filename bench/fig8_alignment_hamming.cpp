// Fig. 8: GPU power vs input bit alignment and Hamming weight.  Every
// configuration from the Section IV sweeps becomes one scatter point
// (alignment, weight, power); this bench prints the per-datatype scatter and
// the correlations the paper eyeballs: higher alignment / lower weight tend
// toward lower power, but not perfectly consistently.  The full scatter is
// submitted to the ExperimentEngine at once; specs shared between figures
// (and with other sweeps) are computed a single time via the engine cache.
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/correlation.hpp"
#include "analysis/table.hpp"
#include "fig_harness.hpp"

int main() {
  using namespace gpupower;
  const core::BenchEnv env = core::read_bench_env();
  bench::print_preamble(env,
                        "Fig. 8: power vs bit alignment and Hamming weight "
                        "(every experiment configuration)");

  core::ExperimentEngine engine = bench::make_engine(env);

  struct Cell {
    core::FigureId figure;
    std::string label;
    core::ScenarioHandle handle;
  };
  std::vector<std::vector<Cell>> cells_by_dtype;
  for (const auto dtype : numeric::kAllDTypes) {
    std::vector<Cell> cells;
    for (const auto fig : core::kAllFigures) {
      const auto sweep = core::figure_sweep(fig);
      // Every other sweep point keeps the scatter dense but the bench fast.
      for (std::size_t i = 0; i < sweep.size(); i += 2) {
        const auto config = core::ExperimentConfigBuilder()
                                .dtype(dtype)
                                .env(env)
                                .seeds(1)
                                .pattern(sweep[i].spec)
                                .build();
        cells.push_back({fig, sweep[i].label, engine.submit(config)});
      }
    }
    cells_by_dtype.push_back(std::move(cells));
  }
  engine.wait_all();

  for (std::size_t d = 0; d < std::size(numeric::kAllDTypes); ++d) {
    const auto dtype = numeric::kAllDTypes[d];
    std::vector<double> alignment, weight, power;
    analysis::Table table({"experiment", "alignment", "weight frac",
                           "power (W)"});
    for (const Cell& cell : cells_by_dtype[d]) {
      const core::ExperimentResult& result =
          cell.handle.get().static_result();
      alignment.push_back(result.alignment);
      weight.push_back(result.weight_fraction);
      power.push_back(result.power_w);
      table.add_row(std::string(core::figure_name(cell.figure)).substr(0, 8) +
                        " " + cell.label,
                    {result.alignment, result.weight_fraction, result.power_w},
                    3);
    }
    std::printf("--- %s scatter ---\n", std::string(numeric::name(dtype)).c_str());
    table.print(std::cout);
    std::printf(
        "pearson(power, alignment) = %+.3f   pearson(power, weight) = %+.3f\n"
        "spearman(power, alignment) = %+.3f  spearman(power, weight) = %+.3f\n\n",
        analysis::pearson(alignment, power), analysis::pearson(weight, power),
        analysis::spearman(alignment, power),
        analysis::spearman(weight, power));
  }
  std::printf(
      "Expected: negative power/alignment correlation and positive\n"
      "power/weight correlation for FP datatypes — present but imperfect,\n"
      "as the paper notes.\n");
  bench::print_engine_stats(engine);
  return 0;
}
