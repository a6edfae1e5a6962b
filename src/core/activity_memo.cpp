#include "core/activity_memo.hpp"

#include "core/obs/obs.hpp"
#include "core/pattern_dsl.hpp"
#include "core/values_memo.hpp"
#include "gpusim/dvfs/dsl_util.hpp"
#include "patterns/rng.hpp"

namespace gpupower::core {

namespace {

template <typename T>
WorkingPointActivity typed_activity(const gpupower::gpusim::GpuSimulator& sim,
                                    const gemm::GemmProblem& problem,
                                    const ExperimentConfig& experiment,
                                    const PatternSpec& pattern,
                                    int seed_index, const ValuesMemo* values) {
  const std::uint64_t replica_seed = patterns::derive_seed(
      experiment.base_seed, static_cast<std::uint64_t>(seed_index));
  const ExperimentInputs<T> inputs = build_inputs<T>(
      pattern, experiment.dtype, experiment.n, replica_seed, values);
  WorkingPointActivity activity;
  activity.totals = sim.activity(problem, experiment.dtype, inputs.a, inputs.b)
                        .totals;
  activity.alignment = inputs.alignment;
  activity.weight_fraction = inputs.weight_fraction;
  return activity;
}

WorkingPointActivity compute(const gpupower::gpusim::GpuSimulator& sim,
                             const gemm::GemmProblem& problem,
                             const ExperimentConfig& experiment,
                             const PatternSpec& pattern, int seed_index,
                             const ValuesMemo* values) {
  return with_storage_type(experiment.dtype, [&](auto tag) {
    return typed_activity<typename decltype(tag)::type>(
        sim, problem, experiment, pattern, seed_index, values);
  });
}

/// Everything compute() reads, one field per '|'-separated slot.
std::string memo_key(const gpupower::gpusim::GpuSimulator& sim,
                     const gemm::GemmProblem& problem,
                     const ExperimentConfig& experiment,
                     const PatternSpec& pattern, int seed_index) {
  using gpupower::gpusim::dvfs::detail::format_exact;
  const gpupower::gpusim::SamplingPlan& plan = sim.options().sampling;
  std::string key = canonical_dsl(pattern);
  key += '|';
  key += gpupower::numeric::name(experiment.dtype);
  for (const std::uint64_t field :
       {std::uint64_t{experiment.n}, std::uint64_t{problem.n},
        std::uint64_t{problem.k}, std::uint64_t{problem.m},
        std::uint64_t{problem.transpose_b}, experiment.base_seed,
        static_cast<std::uint64_t>(seed_index),
        std::uint64_t{plan.max_tiles}, plan.seed}) {
    key += '|';
    key += std::to_string(field);
  }
  key += '|';
  key += format_exact(plan.k_fraction);
  key += '|';
  key += format_exact(problem.alpha);
  key += '|';
  key += format_exact(problem.beta);
  return key;
}

}  // namespace

WorkingPointActivity ActivityMemo::get(
    const gpupower::gpusim::GpuSimulator& sim,
    const gemm::GemmProblem& problem, const ExperimentConfig& experiment,
    const PatternSpec& pattern, int seed_index) const {
  obs::Span span("activity.memo");
  MemoOutcome outcome = MemoOutcome::kMiss;
  WorkingPointActivity value = table_->get(
      memo_key(sim, problem, experiment, pattern, seed_index), kind_,
      [&] {
        if (values_ == nullptr) {
          return compute(sim, problem, experiment, pattern, seed_index,
                         nullptr);
        }
        const ValuesMemo values(*values_, kind_, trace_key_);
        return compute(sim, problem, experiment, pattern, seed_index,
                       &values);
      },
      outcome);
  if (obs::tracing_enabled()) {
    obs::SpanArgs args;
    if (trace_key_ != nullptr) args.arg("key", trace_key_);
    span.args(
        args.arg("seed", seed_index).arg("outcome", outcome_name(outcome)));
  }
  return value;
}

WorkingPointActivity working_point_activity(
    const gpupower::gpusim::GpuSimulator& sim,
    const gemm::GemmProblem& problem, const ExperimentConfig& experiment,
    const PatternSpec& pattern, int seed_index, const ActivityMemo* memo) {
  if (memo != nullptr) {
    return memo->get(sim, problem, experiment, pattern, seed_index);
  }
  return compute(sim, problem, experiment, pattern, seed_index, nullptr);
}

}  // namespace gpupower::core
