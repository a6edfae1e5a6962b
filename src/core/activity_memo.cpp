#include "core/activity_memo.hpp"

#include <exception>
#include <utility>

#include "core/obs/obs.hpp"
#include "core/pattern_dsl.hpp"
#include "gpusim/dvfs/dsl_util.hpp"
#include "patterns/rng.hpp"

namespace gpupower::core {

struct ActivityMemoTable::Entry {
  // Guarded by the owning table's mutex (annotations cannot name it here).
  bool done = false;
  WorkingPointActivity value;
  std::exception_ptr error;
};

namespace {

template <typename T>
WorkingPointActivity typed_activity(const gpupower::gpusim::GpuSimulator& sim,
                                    const gemm::GemmProblem& problem,
                                    const ExperimentConfig& experiment,
                                    const PatternSpec& pattern,
                                    int seed_index) {
  const std::uint64_t replica_seed = patterns::derive_seed(
      experiment.base_seed, static_cast<std::uint64_t>(seed_index));
  const ExperimentInputs<T> inputs =
      build_inputs<T>(pattern, experiment.dtype, experiment.n, replica_seed);
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
                             const PatternSpec& pattern, int seed_index) {
  return with_storage_type(experiment.dtype, [&](auto tag) {
    return typed_activity<typename decltype(tag)::type>(
        sim, problem, experiment, pattern, seed_index);
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

std::uint64_t ActivityMemoTable::hits(ScenarioKind kind) const noexcept {
  return hits_[static_cast<std::size_t>(kind)].load(std::memory_order_relaxed);
}

std::uint64_t ActivityMemoTable::misses(ScenarioKind kind) const noexcept {
  return misses_[static_cast<std::size_t>(kind)].load(
      std::memory_order_relaxed);
}

std::size_t ActivityMemoTable::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

void ActivityMemoTable::clear() {
  MutexLock lock(mutex_);
  for (const std::string& key : completed_) entries_.erase(key);
  completed_.clear();
}

WorkingPointActivity ActivityMemo::get(
    const gpupower::gpusim::GpuSimulator& sim,
    const gemm::GemmProblem& problem, const ExperimentConfig& experiment,
    const PatternSpec& pattern, int seed_index) const {
  obs::Span span("activity.memo");
  const char* outcome = "hit";
  std::string key = memo_key(sim, problem, experiment, pattern, seed_index);
  ActivityMemoTable& table = *table_;
  const std::size_t kind = static_cast<std::size_t>(kind_);
  std::shared_ptr<ActivityMemoTable::Entry> entry;
  bool compute_here = false;
  {
    MutexLock lock(table.mutex_);
    auto [it, inserted] = table.entries_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<ActivityMemoTable::Entry>();
      compute_here = true;
    }
    entry = it->second;
  }
  const auto close_span = [&] {
    if (!obs::tracing_enabled()) return;
    obs::SpanArgs args;
    if (trace_key_ != nullptr) args.arg("key", trace_key_);
    span.args(args.arg("seed", seed_index).arg("outcome", outcome));
  };

  if (compute_here) {
    outcome = "miss";
    table.misses_[kind].fetch_add(1, std::memory_order_relaxed);
    WorkingPointActivity value;
    std::exception_ptr error;
    try {
      value = compute(sim, problem, experiment, pattern, seed_index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      MutexLock lock(table.mutex_);
      entry->done = true;
      if (error) {
        entry->error = error;
        table.entries_.erase(key);  // dropped, not cached
      } else {
        entry->value = value;
        table.completed_.push_back(std::move(key));
        while (table.completed_.size() > table.capacity_) {
          table.entries_.erase(table.completed_.front());
          table.completed_.pop_front();
        }
      }
    }
    table.done_cv_.notify_all();
    close_span();
    if (error) std::rethrow_exception(error);
    return value;
  }

  table.hits_[kind].fetch_add(1, std::memory_order_relaxed);
  WorkingPointActivity value;
  std::exception_ptr error;
  {
    MutexLock lock(table.mutex_);
    if (!entry->done) outcome = "wait";
    while (!entry->done) table.done_cv_.wait(table.mutex_);
    error = entry->error;
    value = entry->value;
  }
  close_span();
  if (error) std::rethrow_exception(error);
  return value;
}

WorkingPointActivity working_point_activity(
    const gpupower::gpusim::GpuSimulator& sim,
    const gemm::GemmProblem& problem, const ExperimentConfig& experiment,
    const PatternSpec& pattern, int seed_index, const ActivityMemo* memo) {
  if (memo != nullptr) {
    return memo->get(sim, problem, experiment, pattern, seed_index);
  }
  return compute(sim, problem, experiment, pattern, seed_index);
}

}  // namespace gpupower::core
