// Quickstart: simulate the paper's baseline experiment — a GEMM with
// Gaussian random inputs on an A100 — for all four datatype setups, and
// print the DCGM-style reported power, runtime, and the per-rail breakdown.
//
// The four runs go through the ExperimentEngine: built with the fluent
// ExperimentConfigBuilder, submitted up front, executed on the worker
// pool, and collected in order.  The protocol is the fast sampled one
// (N=512, 2 seeds, 12 warp tiles, half the K-slices); the paper's is
// N=2048 with 10 seeds, which a spec states (examples/specs/).
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "analysis/table.hpp"
#include "core/config_builder.hpp"
#include "core/engine.hpp"
#include "core/env.hpp"
#include "core/figures.hpp"

int main() {
  using namespace gpupower;

  constexpr std::size_t kN = 512;
  constexpr int kSeeds = 2;
  const core::BenchEnv env = core::read_bench_env();
  std::printf("gpupower quickstart: %zux%zu GEMM, %d seed(s), A100 PCIe\n\n",
              kN, kN, kSeeds);

  core::EngineOptions options;
  options.workers = env.workers;
  core::ExperimentEngine engine(options);

  std::vector<core::ScenarioHandle> handles;
  for (const auto dtype : numeric::kAllDTypes) {
    handles.push_back(engine.submit(core::ExperimentConfigBuilder()
                                        .dtype(dtype)
                                        .n(kN)
                                        .seeds(kSeeds)
                                        .sampling(gpusim::SamplingPlan::fast(
                                            12, 0.5))
                                        .pattern(core::baseline_gaussian_spec())
                                        .build()));
  }
  engine.wait_all();

  analysis::Table table({"datatype", "power (W)", "std (W)", "iter (ms)",
                         "energy/iter (J)", "fetch W", "operand W", "multiply W",
                         "accum W", "issue W"});
  for (std::size_t d = 0; d < std::size(numeric::kAllDTypes); ++d) {
    const core::ExperimentResult& r = handles[d].get().static_result();
    table.add_row(std::string(numeric::name(numeric::kAllDTypes[d])),
                  {r.power_w, r.power_std_w, r.iteration_s * 1e3,
                   r.energy_per_iter_j, r.rails.fetch_w, r.rails.operand_w,
                   r.rails.multiply_w, r.rails.accum_w, r.rails.issue_w},
                  3);
  }

  table.print(std::cout);
  std::printf(
      "\nPower varies with *input data*, not just shape: run\n"
      "gpowerctl run examples/specs/paper_figures.json to sweep the paper's\n"
      "input patterns.\n");
  return 0;
}
