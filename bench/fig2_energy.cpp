// Fig. 2: average iteration energy by datatype for GEMM filled with
// Gaussian random variables (mean 0, stddev 210 FP / 25 INT8).  Energy
// tracks runtime (FP32 slowest => most energy per iteration) even though
// power ordering differs — the paper's argument for reporting power.  The
// four datatype runs execute concurrently on the ExperimentEngine.
#include <cstdio>
#include <iostream>

#include "analysis/table.hpp"
#include "fig_harness.hpp"

int main() {
  using namespace gpupower;
  const core::BenchEnv env = core::read_bench_env();
  bench::print_preamble(
      env, "Fig. 2: average iteration energy, Gaussian random inputs");

  core::ExperimentEngine engine = bench::make_engine(env);
  std::vector<core::ScenarioHandle> handles;
  for (const auto dtype : numeric::kAllDTypes) {
    handles.push_back(engine.submit(core::ExperimentConfigBuilder()
                                        .dtype(dtype)
                                        .env(env)
                                        .pattern(core::baseline_gaussian_spec())
                                        .build()));
  }
  engine.wait_all();

  analysis::Table table(
      {"datatype", "energy/iter (mJ)", "iter (ms)", "power (W)"});
  for (std::size_t d = 0; d < std::size(numeric::kAllDTypes); ++d) {
    const core::ExperimentResult& result = handles[d].get().static_result();
    table.add_row(std::string(numeric::name(numeric::kAllDTypes[d])),
                  {result.energy_per_iter_j * 1e3, result.iteration_s * 1e3,
                   result.power_w},
                  3);
  }
  table.print(std::cout);
  bench::print_engine_stats(engine);
  return 0;
}
