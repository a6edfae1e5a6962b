// Power-capped inference (Section V future work, "data pruning for power
// capping"): a datacenter operator caps each GPU below its TDP; instead of
// DVFS throttling (which slows everything down), this example uses the
// PowerAwareSparsifier to find the minimal magnitude-pruning sparsity whose
// simulated GEMM power fits under the cap, and compares the two approaches'
// effective throughput.
//
//   ./build/examples/power_capped_inference
#include <cstdio>
#include <iostream>

#include "analysis/table.hpp"
#include "core/env.hpp"
#include "core/transforms.hpp"
#include "gpusim/simulator.hpp"
#include "patterns/distributions.hpp"

int main() {
  using namespace gpupower;

  (void)core::read_bench_env();  // retired experiment knobs exit 2
  constexpr std::size_t n = 512;
  const gpusim::SamplingPlan plan = gpusim::SamplingPlan::fast(12, 0.5);

  std::printf(
      "Sparsity as a power-capping lever (%zux%zu FP16 GEMM, simulated "
      "A100)\n\n",
      n, n);

  const auto weights = patterns::gaussian_fill(n * n, 0.0, 210.0, 42);
  const auto activations = patterns::gaussian_fill(n * n, 0.0, 210.0, 7);

  gpusim::SimOptions options;
  options.sampling = plan;
  const gpusim::GpuSimulator sim(gpusim::GpuModel::kA100PCIe, options);
  const auto problem = gemm::GemmProblem::square(n);
  const auto dense_a = gemm::materialize<numeric::float16_t>(weights, n, n);
  const auto b = gemm::materialize<numeric::float16_t>(activations, n, n);
  const auto dense =
      sim.run_gemm(problem, numeric::DType::kFP16, dense_a, b);

  // Sweep caps from just under the dense draw down toward the floor.
  const core::PowerAwareSparsifier sparsifier(gpusim::GpuModel::kA100PCIe,
                                              numeric::DType::kFP16, plan);

  analysis::Table table({"power cap (W)", "DVFS throughput", "sparsity",
                         "sparsity throughput", "L2 norm kept"});
  for (const double fraction : {0.99, 0.97, 0.95, 0.92}) {
    const double cap = dense.total_w * fraction;

    // Option A: DVFS — clock scales until the cap holds; throughput follows
    // the clock (dynamic power is ~linear in f at fixed voltage).
    const double dvfs_clock =
        std::min(1.0, (cap - dense.idle_w - dense.leakage_w) /
                          (dense.total_w - dense.idle_w - dense.leakage_w));
    // Option B: prune weights until the data draws little enough power.
    const auto design = sparsifier.design(weights, n, cap);

    table.add_row(
        {analysis::fixed(cap, 1),
         analysis::fixed(100.0 * dvfs_clock, 1) + " %",
         design.feasible ? analysis::fixed(100.0 * design.sparsity, 1) + " %"
                         : "infeasible",
         design.feasible ? "100 % (full clock)" : "--",
         design.feasible ? analysis::fixed(100.0 * design.l2_retained, 1) + " %"
                         : "--"});
  }
  table.print(std::cout);
  std::printf(
      "\nDense draw: %.1f W.  DVFS trades throughput for power; input\n"
      "sparsification holds full throughput and trades model fidelity\n"
      "(L2 norm kept) instead — the trade-off the paper proposes exploring.\n",
      dense.total_w);
  return 0;
}
