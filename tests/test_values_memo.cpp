// The values memo (core/values_memo.hpp) and the memo core it shares with
// the activity memo (core/memo_table.hpp): shared streams change no byte of
// any input, each stream is generated once while held or in flight, errors
// reach every waiter and are never cached, and an idle engine holds no
// stream bytes.
#include "core/values_memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/memo_table.hpp"
#include "core/pattern_spec.hpp"
#include "core/scenario.hpp"
#include "gemm/matrix.hpp"

namespace gpupower::core {
namespace {

using gpupower::numeric::DType;
using gpupower::numeric::kAllDTypes;

constexpr int kThreads = 8;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

template <typename T>
bool same_storage(const gemm::Matrix<T>& a, const gemm::Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Runs `body(i)` on kThreads threads released together.
template <typename Body>
void run_together(Body body) {
  std::promise<void> go;
  const std::shared_future<void> start = go.get_future().share();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&body, start, i] {
      start.wait();
      body(i);
    });
  }
  go.set_value();
  for (std::thread& thread : threads) thread.join();
}

/// Spins until `done()` holds (the tests' only way to see that threads
/// are parked inside a lookup: hits are counted before the wait).
template <typename Done>
void spin_until(Done done) {
  while (!done()) std::this_thread::yield();
}

ValueStream gaussian_stream(std::size_t count, std::uint64_t seed) {
  ValueStream stream;
  stream.mean = 0.0;
  stream.sigma = 210.0;
  stream.count = count;
  stream.seed = seed;
  return stream;
}

TEST(ValuesMemo, BuildInputsMatchesWithoutTheMemo) {
  // Every figure family's points at every dtype, all through one table,
  // so later points hit streams generated for earlier ones.
  ValuesMemoTable table;
  const ValuesMemo memo(table, ScenarioKind::kStatic);
  for (const FigureId figure : kAllFigures) {
    for (const SweepPoint& point : figure_sweep(figure)) {
      for (const DType dtype : kAllDTypes) {
        with_storage_type(dtype, [&](auto tag) {
          using T = typename decltype(tag)::type;
          const ExperimentInputs<T> direct =
              build_inputs<T>(point.spec, dtype, 64, 42);
          const ExperimentInputs<T> shared =
              build_inputs<T>(point.spec, dtype, 64, 42, &memo);
          EXPECT_TRUE(same_storage(direct.a, shared.a) &&
                      same_storage(direct.b, shared.b) &&
                      same_bits(direct.alignment, shared.alignment) &&
                      same_bits(direct.weight_fraction,
                                shared.weight_fraction))
              << figure_key(figure) << " " << point.label << " "
              << gpupower::numeric::name(dtype);
        });
      }
    }
  }
  EXPECT_GT(table.hits(ScenarioKind::kStatic), 0u);
}

TEST(ValuesMemo, ConcurrentRequestersGenerateOnce) {
  ValuesMemoTable table;
  const ValuesMemo memo(table, ScenarioKind::kDvfs);
  const ValueStream stream = gaussian_stream(64 * 64, 7);
  std::vector<SharedValues> got(kThreads);
  run_together(
      [&](int i) { got[static_cast<std::size_t>(i)] = memo.get(stream); });
  EXPECT_EQ(table.misses(ScenarioKind::kDvfs), 1u);
  EXPECT_EQ(table.hits(ScenarioKind::kDvfs),
            static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(table.misses(ScenarioKind::kStatic), 0u);
  for (const SharedValues& values : got) EXPECT_EQ(values, got.front());
  EXPECT_EQ(*got.front(), stream.generate());
  EXPECT_EQ(table.held_cost(), stream.count * sizeof(float));
}

TEST(ValuesMemo, ThrowingFillReachesEveryRequesterAndIsNotCached) {
  ValuesMemoTable table;
  const ValuesMemo memo(table, ScenarioKind::kStatic);
  ValueStream stream = gaussian_stream(64, 3);
  stream.value = PatternSpec::Value::kValueSet;
  stream.set_size = std::numeric_limits<std::size_t>::max() / 2;
  std::atomic<int> thrown{0};
  run_together([&](int) {
    try {
      (void)memo.get(stream);
    } catch (const std::exception&) {
      thrown.fetch_add(1);
    }
  });
  EXPECT_EQ(thrown.load(), kThreads);
  EXPECT_EQ(table.size(), 0u);
  const std::uint64_t misses = table.misses(ScenarioKind::kStatic);
  EXPECT_GE(misses, 1u);
  EXPECT_EQ(misses + table.hits(ScenarioKind::kStatic),
            static_cast<std::uint64_t>(kThreads));
  // Not cached: the next lookup generates (and throws) again.
  EXPECT_ANY_THROW((void)memo.get(stream));
  EXPECT_EQ(table.misses(ScenarioKind::kStatic), misses + 1);
}

TEST(MemoTable, ErrorReachesEveryWaiter) {
  // The first requester's compute holds until the other seven are parked
  // on its entry, then throws: all eight see the error, none is cached.
  MemoTable<int> table(16, [](const int&) noexcept -> std::size_t {
    return 1;
  });
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> thrown{0};
  const auto request = [&] {
    MemoOutcome outcome = MemoOutcome::kHit;
    try {
      (void)table.get(
          "k", ScenarioKind::kStatic,
          [&]() -> int {
            released.wait();
            throw std::runtime_error("fill failed");
          },
          outcome);
    } catch (const std::runtime_error&) {
      thrown.fetch_add(1);
    }
    return outcome;
  };
  MemoOutcome first = MemoOutcome::kHit;
  std::thread computing([&] { first = request(); });
  spin_until([&] { return table.misses(ScenarioKind::kStatic) == 1; });
  std::vector<MemoOutcome> outcomes(kThreads - 1, MemoOutcome::kHit);
  std::vector<std::thread> waiters;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    waiters.emplace_back([&, i] { outcomes[i] = request(); });
  }
  spin_until([&] {
    return table.hits(ScenarioKind::kStatic) ==
           static_cast<std::uint64_t>(kThreads - 1);
  });
  release.set_value();
  computing.join();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(thrown.load(), kThreads);
  EXPECT_EQ(first, MemoOutcome::kMiss);
  for (const MemoOutcome outcome : outcomes) {
    EXPECT_EQ(outcome, MemoOutcome::kWait);
  }
  EXPECT_EQ(table.size(), 0u);
  MemoOutcome outcome = MemoOutcome::kHit;
  EXPECT_EQ(table.get("k", ScenarioKind::kStatic, [] { return 5; }, outcome),
            5);
  EXPECT_EQ(outcome, MemoOutcome::kMiss);
}

TEST(ValuesMemo, OverBudgetStreamIsSharedInFlightButNotRetained) {
  ValuesMemoTable table;
  const std::size_t over = kValuesMemoBudgetBytes / sizeof(float) + 1;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> computed{0};
  std::vector<SharedValues> got(kThreads);
  const auto request = [&](std::size_t i) {
    MemoOutcome outcome = MemoOutcome::kHit;
    got[i] = table.get(
        "over", ScenarioKind::kFleet,
        [&] {
          computed.fetch_add(1);
          released.wait();
          return std::make_shared<const std::vector<float>>(over, 1.0f);
        },
        outcome);
  };
  std::thread computing([&] { request(0); });
  spin_until([&] { return table.misses(ScenarioKind::kFleet) == 1; });
  std::vector<std::thread> waiters;
  for (std::size_t i = 1; i < got.size(); ++i) {
    waiters.emplace_back([&, i] { request(i); });
  }
  spin_until([&] {
    return table.hits(ScenarioKind::kFleet) ==
           static_cast<std::uint64_t>(kThreads - 1);
  });
  release.set_value();
  computing.join();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(computed.load(), 1);
  for (const SharedValues& values : got) EXPECT_EQ(values, got.front());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.held_cost(), 0u);

  // Through the generating path: a stream one float over the budget is
  // generated again on every lookup, and evicts nothing.
  const ValuesMemo memo(table, ScenarioKind::kStatic);
  const SharedValues held = memo.get(gaussian_stream(64, 1));
  const ValueStream big = gaussian_stream(over, 2);
  EXPECT_EQ(*memo.get(big), *memo.get(big));
  EXPECT_EQ(table.misses(ScenarioKind::kStatic), 3u);
  EXPECT_EQ(table.held_cost(), 64 * sizeof(float));
  EXPECT_EQ(memo.get(gaussian_stream(64, 1)), held);
}

TEST(ValuesMemo, OldestStreamIsEvictedFirst) {
  // Four streams of a quarter budget each fill the table; a fifth evicts
  // the first and keeps the rest.
  ValuesMemoTable table;
  const ValuesMemo memo(table, ScenarioKind::kStatic);
  const std::size_t quarter = kValuesMemoBudgetBytes / sizeof(float) / 4;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    (void)memo.get(gaussian_stream(quarter, seed));
  }
  EXPECT_EQ(table.held_cost(), kValuesMemoBudgetBytes);
  EXPECT_EQ(table.size(), 4u);
  (void)memo.get(gaussian_stream(quarter, 4));
  EXPECT_EQ(table.hits(ScenarioKind::kStatic), 1u);
  (void)memo.get(gaussian_stream(quarter, 0));
  EXPECT_EQ(table.misses(ScenarioKind::kStatic), 6u);
}

// --- through the engine -----------------------------------------------------

ExperimentConfig point_config(DType dtype, const PatternSpec& pattern) {
  ExperimentConfig config;
  config.dtype = dtype;
  config.n = 64;
  config.seeds = 1;
  config.base_seed = 1007;
  config.sampling = gpupower::gpusim::SamplingPlan::fast(6, 0.5);
  config.pattern = pattern;
  return config;
}

/// Holds a 1-worker engine's only worker until open() (or destruction),
/// so every submit made meanwhile is queued before any of them runs and
/// the queue cannot drain in between.  The hold is a constant-pattern job
/// (its fill bypasses the values memo) whose on_ready callback blocks on
/// the worker.  A job that already finished runs the callback inline on
/// this thread instead, so the gate retries with a fresh key until one
/// holds.
class WorkerGate {
 public:
  explicit WorkerGate(ExperimentEngine& engine)
      : opened_(open_.get_future().share()) {
    PatternSpec constant;
    constant.value = PatternSpec::Value::kConstant;
    const std::thread::id caller = std::this_thread::get_id();
    for (std::uint64_t seed = 1;; ++seed) {
      ExperimentConfig config = point_config(DType::kFP16, constant);
      config.base_seed = seed;
      bool ran_inline = false;
      engine.submit(config).on_ready(
          [&ran_inline, caller, opened = opened_] {
            if (std::this_thread::get_id() == caller) {
              ran_inline = true;
              return;
            }
            opened.wait();
          });
      if (!ran_inline) return;
    }
  }
  ~WorkerGate() { open(); }
  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;

  void open() {
    if (!is_open_) open_.set_value();
    is_open_ = true;
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> opened_;
  bool is_open_ = false;
};

std::string result_bytes(const ScenarioResult& result) {
  return scenario_result_to_json(result).dump();
}

TEST(ValuesMemo, OneWorkerFig5aCampaignSharesOnePairPerRange) {
  // Fig. 5a at fp32, fp16, fp16t and int8 (dtype-major, like a campaign
  // with a dtype axis): the FP dtypes draw one stream pair and INT8 its
  // scaled pair, and every sort level reorders the same draws.
  ExperimentEngine engine(EngineOptions::with_workers(1));
  std::vector<ExperimentConfig> configs;
  for (const DType dtype : kAllDTypes) {
    for (const SweepPoint& point : figure_sweep(FigureId::kFig5aSortedRows)) {
      configs.push_back(point_config(dtype, point.spec));
    }
  }
  std::vector<ScenarioHandle> handles;
  {
    WorkerGate gate(engine);
    for (const ExperimentConfig& config : configs) {
      handles.push_back(engine.submit(config));
    }
  }
  engine.wait_all();
  const EngineStats stats = engine.stats();
  const EngineKindStats& kind = stats.of(ScenarioKind::kStatic);
  EXPECT_EQ(kind.values_memo_misses, 4u);
  EXPECT_EQ(kind.values_memo_hits, 2 * configs.size() - 4);
  EXPECT_EQ(stats.values_memo_misses, kind.values_memo_misses);
  EXPECT_EQ(stats.values_memo_hits, kind.values_memo_hits);
  const analysis::JsonValue json = engine_stats_json(stats, engine.workers());
  EXPECT_EQ(json.find("values_memo_misses")->as_number(), 4.0);
  EXPECT_EQ(json.find("by_kind")
                ->find("static")
                ->find("values_memo_hits")
                ->as_number(),
            static_cast<double>(2 * configs.size() - 4));
  for (std::size_t i = 0; i < configs.size(); i += 5) {
    EXPECT_EQ(result_bytes(handles[i].get()),
              result_bytes(run_scenario(ScenarioConfig(configs[i]))))
        << i;
  }
}

TEST(ValuesMemo, IdleEngineHoldsNoStreamBytes) {
  ExperimentEngine engine(EngineOptions::with_workers(4));
  std::vector<ScenarioHandle> handles;
  for (const SweepPoint& point : figure_sweep(FigureId::kFig6aSparsity)) {
    handles.push_back(engine.submit(point_config(DType::kFP16, point.spec)));
  }
  engine.wait_all();
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.values_memo_hits, 0u);
  EXPECT_EQ(stats.values_memo_bytes, 0u);
  EXPECT_EQ(engine_stats_json(stats, engine.workers())
                .find("values_memo_bytes")
                ->as_number(),
            0.0);
}

}  // namespace
}  // namespace gpupower::core
