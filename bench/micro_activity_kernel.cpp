// Micro benchmark for the activity hot path: times estimate_activity's
// batched bit-plane kernel against the reference observer walk on the
// fig. 1 protocol shape (N=1024, sampled plan), one case per datatype, and
// asserts the two backends stay bit-identical while timing.  Emits the
// measurements as BENCH_activity.json (tools/bench_export) so the speedup
// is tracked as a committed trajectory file and a CI artifact.
//
// Options: --n SIZE (default 1024, the committed protocol shape; the
// sampled plan is fixed at 12 tiles / k-fraction 0.5) and --out PATH (the
// JSON destination, default BENCH_activity.json in the working
// directory).  A malformed value exits 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "core/env.hpp"
#include "core/experiment.hpp"
#include "core/obs/obs.hpp"
#include "gemm/matrix.hpp"
#include "gpusim/activity.hpp"
#include "patterns/distributions.hpp"
#include "tools/bench_export.hpp"

namespace {

using namespace gpupower;

template <typename T>
std::pair<double, gpusim::ActivityEstimate> time_backend(
    const gemm::GemmProblem& problem, const gemm::Matrix<T>& a,
    const gemm::Matrix<T>& b, const gemm::TileConfig& config,
    const gpusim::SamplingPlan& plan, gpusim::ActivityBackend backend,
    int reps) {
  double best_s = 1e300;
  gpusim::ActivityEstimate est;
  core::obs::StopWatch watch;
  for (int r = 0; r < reps; ++r) {
    watch.reset();
    est = gpusim::estimate_activity(problem, a, b, config, plan, backend);
    best_s = std::min(best_s, watch.seconds());
  }
  return {best_s, est};
}

template <typename T>
tools::BenchCase run_case(const char* name, numeric::DType dtype,
                          std::size_t n, const gpusim::SamplingPlan& plan,
                          analysis::Table& table, double& speedup_product) {
  const auto a = gemm::materialize<T>(
      patterns::gaussian_fill(n * n, 0.0, 210.0, 1), n, n);
  const auto b = gemm::materialize<T>(
      patterns::gaussian_fill(n * n, 0.0, 210.0, 2), n, n);
  const auto problem = gemm::GemmProblem::square(n);
  const auto config = gemm::TileConfig::for_dtype(dtype);

  const auto [observer_s, observer_est] = time_backend(
      problem, a, b, config, plan, gpusim::ActivityBackend::kObserver, 3);
  const auto [batched_s, batched_est] = time_backend(
      problem, a, b, config, plan, gpusim::ActivityBackend::kBatched, 5);

  if (!(observer_est.totals == batched_est.totals)) {
    std::fprintf(stderr,
                 "micro_activity_kernel: PARITY FAILURE for %s — batched "
                 "totals diverge from the observer walk\n",
                 name);
    std::exit(1);
  }

  const double speedup = observer_s / batched_s;
  speedup_product *= speedup;
  table.add_row(name, {observer_s * 1e3, batched_s * 1e3, speedup}, 3);

  tools::BenchCase result;
  result.name = name;
  result.metrics = {{"observer_ms", observer_s * 1e3},
                    {"batched_ms", batched_s * 1e3},
                    {"speedup", speedup},
                    {"macs", static_cast<double>(batched_est.totals.macs)}};
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  (void)core::read_bench_env();  // retired experiment knobs exit 2
  std::string out_path = "BENCH_activity.json";
  std::size_t n = 1024;
  for (int i = 1; i < argc; ++i) {
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    long parsed = 0;
    if (std::strcmp(argv[i], "--out") == 0 && value != nullptr) {
      out_path = value;
    } else if (std::strcmp(argv[i], "--n") == 0 &&
               core::parse_long_strict(value, core::kMinN, core::kMaxN,
                                       parsed)) {
      n = static_cast<std::size_t>(parsed);
    } else {
      std::fprintf(stderr,
                   "micro_activity_kernel: invalid %s '%s' (expected --n "
                   "SIZE in [%zu, %zu] or --out PATH)\n",
                   argv[i], value != nullptr ? value : "", core::kMinN,
                   core::kMaxN);
      return 2;
    }
    ++i;
  }
  // The committed protocol's sampled plan.
  const gpusim::SamplingPlan plan = gpusim::SamplingPlan::fast(12, 0.5);

  char protocol[160];
  std::snprintf(protocol, sizeof protocol,
                "N=%zu sampled(tiles=%zu, kfrac=%.2f), best-of-reps wall "
                "time, parity-checked",
                n, plan.max_tiles, plan.k_fraction);
  std::printf("activity kernel micro bench — %s\n\n", protocol);

  analysis::Table table(
      {"datatype", "observer (ms)", "batched (ms)", "speedup"});
  double speedup_product = 1.0;
  std::vector<tools::BenchCase> cases;
  cases.push_back(run_case<float>("fp32", numeric::DType::kFP32, n, plan,
                                  table, speedup_product));
  cases.push_back(run_case<numeric::float16_t>(
      "fp16", numeric::DType::kFP16, n, plan, table, speedup_product));
  cases.push_back(run_case<numeric::float16_t>(
      "fp16t", numeric::DType::kFP16T, n, plan, table, speedup_product));
  cases.push_back(run_case<numeric::int8_value_t>(
      "int8", numeric::DType::kINT8, n, plan, table, speedup_product));

  const double geomean =
      std::pow(speedup_product, 1.0 / static_cast<double>(cases.size()));
  tools::BenchCase summary;
  summary.name = "geomean";
  summary.metrics = {{"speedup", geomean}};
  cases.push_back(summary);

  table.print(std::cout);
  std::printf("\ngeomean speedup: %.2fx\n", geomean);

  const auto doc = tools::bench_document("activity_kernel", protocol, cases);
  if (!tools::write_bench_json(out_path, doc)) {
    std::fprintf(stderr, "micro_activity_kernel: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
