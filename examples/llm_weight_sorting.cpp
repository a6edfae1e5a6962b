// LLM weight sorting (Section V future work): neural-network layer weights
// feed GEMMs where rows correspond to independent neurons, so rows can be
// permuted freely as long as the output is un-permuted — a computation-
// preserving transform.  This example takes a transformer-style FFN weight
// matrix, applies the permutation-invariant row sort plus an (accuracy-
// affecting) mean shift, and reports the simulated A100 power for each
// variant, verifying on the way that the row sort leaves the GEMM result
// intact.
//
//   ./build/examples/llm_weight_sorting
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/table.hpp"
#include "core/env.hpp"
#include "core/transforms.hpp"
#include "gemm/reference.hpp"
#include "gpusim/simulator.hpp"
#include "patterns/distributions.hpp"
#include "patterns/sparsity.hpp"

int main() {
  using namespace gpupower;

  (void)core::read_bench_env();  // retired experiment knobs exit 2
  constexpr std::size_t n = 512;
  std::printf(
      "Power-aware LLM weight transforms on a %zux%zu FFN layer (FP16-T, "
      "A100)\n\n",
      n, n);

  // Transformer FFN weights: roughly Gaussian, zero-centred, small sigma.
  const auto weights = patterns::gaussian_fill(n * n, 0.0, 0.02, 0xF0F0u);
  const auto activations = patterns::gaussian_fill(n * n, 0.0, 1.0, 7);

  gpusim::SimOptions options;
  options.sampling = gpusim::SamplingPlan::fast(12, 0.5);
  const gpusim::GpuSimulator sim(gpusim::GpuModel::kA100PCIe, options);
  const auto problem = gemm::GemmProblem::square(n, /*transpose_b=*/false);

  const auto simulate = [&](const std::vector<float>& w) {
    const auto a = gemm::materialize<numeric::float16_t>(w, n, n);
    const auto b = gemm::materialize<numeric::float16_t>(activations, n, n);
    return sim.run_gemm(problem, numeric::DType::kFP16T, a, b);
  };

  analysis::Table table({"variant", "power (W)", "vs baseline", "exact?"});
  const auto baseline = simulate(weights);
  table.add_row({"baseline weights", analysis::fixed(baseline.total_w, 1),
                 "--", "yes"});

  // 1. Permutation-invariant row sort: provably exact.
  const auto sorted = core::sort_rows_permutation_invariant(weights, n, n);
  const auto sorted_report = simulate(sorted.sorted);
  table.add_row({"rows sorted by mean", analysis::fixed(sorted_report.total_w, 1),
                 analysis::fixed(sorted_report.total_w - baseline.total_w, 1) + " W",
                 "yes (un-permute output)"});

  // 2. Mean shift toward a larger average (paper Section V direction 1).
  const auto shifted = core::mean_shift(weights, 0.08);
  const auto shifted_report = simulate(shifted.shifted);
  table.add_row({"mean shifted to 0.08",
                 analysis::fixed(shifted_report.total_w, 1),
                 analysis::fixed(shifted_report.total_w - baseline.total_w, 1) + " W",
                 "no (bias " + analysis::fixed(shifted.delta, 3) + ")"});

  // 3. Structured 2:4 sparsity on the smallest magnitudes.
  auto pruned = weights;
  patterns::sparsify_2_4(pruned);
  const auto pruned_report = simulate(pruned);
  table.add_row({"2:4 magnitude pruned",
                 analysis::fixed(pruned_report.total_w, 1),
                 analysis::fixed(pruned_report.total_w - baseline.total_w, 1) + " W",
                 "approx (50% weights kept)"});

  table.print(std::cout);

  // Correctness spot check for the row sort at a small size: GEMM output
  // restored by the inverse permutation must match the original exactly for
  // the INT8 (exact-arithmetic) pipeline.
  {
    const std::size_t m = 64;
    const auto w_small = patterns::gaussian_fill(m * m, 0.0, 25.0, 1);
    const auto x_small = patterns::gaussian_fill(m * m, 0.0, 25.0, 2);
    const auto s = core::sort_rows_permutation_invariant(w_small, m, m);
    const auto p = gemm::GemmProblem::square(m, false);
    gemm::Matrix<std::int32_t> c(m, m), original_out, sorted_out;
    gemm::reference_gemm(p,
                         gemm::materialize<numeric::int8_value_t>(w_small, m, m),
                         gemm::materialize<numeric::int8_value_t>(x_small, m, m),
                         c, original_out);
    gemm::reference_gemm(
        p, gemm::materialize<numeric::int8_value_t>(s.sorted, m, m),
        gemm::materialize<numeric::int8_value_t>(x_small, m, m), c, sorted_out);
    std::vector<float> rows(sorted_out.span().begin(), sorted_out.span().end());
    const auto restored = core::unpermute_rows(rows, s.permutation, m, m);
    bool exact = true;
    for (std::size_t i = 0; i < restored.size(); ++i) {
      if (static_cast<std::int32_t>(restored[i]) != original_out.span()[i]) {
        exact = false;
      }
    }
    std::printf("\nrow-sort round-trip on INT8 GEMM: %s\n",
                exact ? "bit-exact" : "MISMATCH (bug!)");
  }
  return 0;
}
