// DVFS timeline-replay suite: the timeline DSL, the degenerate-case
// guarantee (one-state replay == the static power model, bit for bit),
// replay determinism through the engine at different worker counts, the
// utilization-trace round trip, and the backlog/latency accounting.
#include "gpusim/dvfs/replay.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/config_builder.hpp"
#include "core/dvfs_experiment.hpp"
#include "core/engine.hpp"
#include "core/env.hpp"
#include "core/pattern_dsl.hpp"
#include "core/pattern_spec.hpp"
#include "gpusim/dvfs/timeline.hpp"
#include "gpusim/simulator.hpp"

namespace gpupower::gpusim::dvfs {
namespace {

using core::DvfsConfig;
using core::DvfsResult;

// --- timeline DSL ---------------------------------------------------------

TEST(TimelineDsl, BurstProducesTheSquareWave) {
  const auto parsed =
      parse_timeline("burst(period=0.2, duty=25%, high=1, low=10%, dur=0.6)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto& phases = parsed.timeline.phases();
  ASSERT_EQ(phases.size(), 6u);
  EXPECT_DOUBLE_EQ(parsed.timeline.duration_s(), 0.6);
  EXPECT_DOUBLE_EQ(phases[0].duration_s, 0.05);
  EXPECT_DOUBLE_EQ(phases[0].utilization, 1.0);
  EXPECT_DOUBLE_EQ(phases[1].duration_s, 0.15);
  EXPECT_DOUBLE_EQ(phases[1].utilization, 0.10);
}

TEST(TimelineDsl, StagesConcatenateInTime) {
  const auto parsed = parse_timeline(
      "constant(util=60%, dur=0.5) | idle(dur=0.25) | "
      "ramp(from=0, to=1, steps=4, dur=1)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const WorkloadTimeline& timeline = parsed.timeline;
  EXPECT_DOUBLE_EQ(timeline.duration_s(), 1.75);
  EXPECT_DOUBLE_EQ(timeline.offered_at(0.1), 0.60);
  EXPECT_DOUBLE_EQ(timeline.offered_at(0.6), 0.0);
  EXPECT_DOUBLE_EQ(timeline.offered_at(0.80), 0.0);       // ramp step 1
  EXPECT_DOUBLE_EQ(timeline.offered_at(1.74), 1.0);       // ramp step 4
  EXPECT_DOUBLE_EQ(timeline.offered_at(2.0), 0.0);        // past the end
  EXPECT_DOUBLE_EQ(timeline.offered_at(-0.1), 0.0);
}

TEST(TimelineDsl, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_timeline("").ok);
  EXPECT_FALSE(parse_timeline("squiggle(dur=1)").ok);
  EXPECT_FALSE(parse_timeline("burst(perd=0.1)").ok);
  EXPECT_FALSE(parse_timeline("constant(util=50%, dur=0)").ok);
  EXPECT_FALSE(parse_timeline("idle(dur=1) constant(dur=1)").ok);
  const auto failed = parse_timeline("idle(dur=1) | ");
  EXPECT_FALSE(failed.ok);
}

TEST(TimelineDsl, CanonicalFormRoundTripsExactly) {
  const auto first =
      parse_timeline("burst(period=0.3, duty=40%, high=90%, low=5%, dur=1)");
  ASSERT_TRUE(first.ok);
  const auto second = parse_timeline(to_dsl(first.timeline));
  ASSERT_TRUE(second.ok) << second.error;
  ASSERT_EQ(first.timeline.phases().size(), second.timeline.phases().size());
  for (std::size_t i = 0; i < first.timeline.phases().size(); ++i) {
    EXPECT_EQ(first.timeline.phases()[i].duration_s,
              second.timeline.phases()[i].duration_s);
    EXPECT_EQ(first.timeline.phases()[i].utilization,
              second.timeline.phases()[i].utilization);
  }
  EXPECT_EQ(to_dsl(second.timeline), to_dsl(first.timeline));
  // Numbers print in their shortest exact form.
  EXPECT_EQ(to_dsl(parse_timeline("constant(util=15%, dur=0.14)").timeline),
            "constant(util=0.15, dur=0.14)");
}

TEST(TimelineDsl, PhasesCarryPatternIndices) {
  const auto parsed = parse_timeline(
      "constant(util=60%, dur=0.3, pattern=1) | constant(util=60%, dur=0.3)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  // Equal-utilization neighbours with different pattern overrides must NOT
  // merge — they are different inputs at equal load.
  ASSERT_EQ(parsed.timeline.phases().size(), 2u);
  EXPECT_EQ(parsed.timeline.phases()[0].pattern, 1);
  EXPECT_EQ(parsed.timeline.phases()[1].pattern, -1);
  EXPECT_EQ(parsed.timeline.pattern_at(0.1), 1);
  EXPECT_EQ(parsed.timeline.pattern_at(0.4), -1);
  EXPECT_EQ(parsed.timeline.pattern_at(0.9), -1);  // past the end
  EXPECT_EQ(parsed.timeline.max_pattern_index(), 1);

  // The canonical form round-trips the pattern key.
  const auto second = parse_timeline(to_dsl(parsed.timeline));
  ASSERT_TRUE(second.ok) << second.error;
  ASSERT_EQ(second.timeline.phases().size(), 2u);
  EXPECT_EQ(second.timeline.phases()[0].pattern, 1);
  EXPECT_EQ(second.timeline.phases()[1].pattern, -1);

  // Pattern-free timelines keep the historical canonical form.
  const auto plain = parse_timeline("constant(util=60%, dur=0.3)");
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(to_dsl(plain.timeline).find("pattern"), std::string::npos);
  EXPECT_EQ(plain.timeline.max_pattern_index(), -1);

  EXPECT_FALSE(parse_timeline("idle(dur=1, pattern=1.5)").ok);
  EXPECT_FALSE(parse_timeline("idle(dur=1, pattern=-3)").ok);
}

// --- shared fixture -------------------------------------------------------

DvfsConfig small_dvfs_config() {
  DvfsConfig config;
  config.experiment.dtype = gpupower::numeric::DType::kFP16;
  config.experiment.n = 64;
  config.experiment.seeds = 3;
  config.experiment.sampling = SamplingPlan::fast(6, 0.5);
  config.experiment.pattern = core::PatternSpec{};
  config.slice_s = 0.01;
  config.pstates = 5;
  config.governor.policy = GovernorConfig::Policy::kUtilization;
  config.timeline =
      parse_timeline("burst(period=0.1, duty=30%, high=1, low=10%, dur=0.5)")
          .timeline;
  return config;
}

/// Activity + descriptor for one seed replica, through the same pipeline
/// run_dvfs_seed_replica uses.
struct WorkingPoint {
  DeviceDescriptor dev;
  gemm::GemmProblem problem;
  ActivityTotals activity;
};

WorkingPoint working_point(const DvfsConfig& config) {
  const GpuSimulator sim(config.experiment.gpu,
                         core::replica_sim_options(config.experiment, 0));
  const gemm::GemmProblem problem{config.experiment.n, config.experiment.n,
                                  config.experiment.n, 1.0f, 0.0f, true};
  const auto inputs = core::build_inputs<gpupower::numeric::float16_t>(
      config.experiment.pattern, config.experiment.dtype, config.experiment.n,
      42);
  const auto est =
      sim.activity(problem, config.experiment.dtype, inputs.a, inputs.b);
  return {sim.descriptor(), problem, est.totals};
}

// --- the degenerate case: one-state DVFS == the static model --------------

TEST(DvfsReplay, BoostOperatingPointIsBitIdenticalToStaticEvaluate) {
  const DvfsConfig config = small_dvfs_config();
  const WorkingPoint wp = working_point(config);
  const PowerCalculator calc(wp.dev);

  const PowerReport classic =
      calc.evaluate(wp.problem, config.experiment.dtype, wp.activity);
  const PowerReport at_boost = calc.evaluate_at(
      wp.problem, config.experiment.dtype, wp.activity, OperatingPoint{});
  EXPECT_EQ(classic.iteration_s, at_boost.iteration_s);
  EXPECT_EQ(classic.realized_iteration_s, at_boost.realized_iteration_s);
  EXPECT_EQ(classic.effective_clock_frac, at_boost.effective_clock_frac);
  EXPECT_EQ(classic.throttled, at_boost.throttled);
  EXPECT_EQ(classic.total_w, at_boost.total_w);
  EXPECT_EQ(classic.dynamic_w, at_boost.dynamic_w);
  EXPECT_EQ(classic.idle_w, at_boost.idle_w);
  EXPECT_EQ(classic.leakage_w, at_boost.leakage_w);
  EXPECT_EQ(classic.energy_j, at_boost.energy_j);
  EXPECT_EQ(classic.rails.fetch_w, at_boost.rails.fetch_w);
  EXPECT_EQ(classic.rails.operand_w, at_boost.rails.operand_w);
  EXPECT_EQ(classic.rails.multiply_w, at_boost.rails.multiply_w);
  EXPECT_EQ(classic.rails.accum_w, at_boost.rails.accum_w);
  EXPECT_EQ(classic.rails.issue_w, at_boost.rails.issue_w);
}

TEST(DvfsReplay, OneStateSaturatedReplayReproducesStaticPowerExactly) {
  const DvfsConfig config = small_dvfs_config();
  const WorkingPoint wp = working_point(config);
  const PowerCalculator calc(wp.dev);
  const PowerReport classic =
      calc.evaluate(wp.problem, config.experiment.dtype, wp.activity);

  const PStateTable table = PStateTable::boost_only(wp.dev);
  const TimelineReplayer replayer(wp.dev, wp.problem, config.experiment.dtype,
                                  wp.activity, table);
  const auto governor =
      make_governor(GovernorConfig{GovernorConfig::Policy::kFixed});
  const ReplayResult replay = replayer.replay(
      WorkloadTimeline::constant(1.0, 0.2), *governor, 0.01);

  ASSERT_EQ(replay.slices.size(), 20u);
  for (const ReplaySlice& slice : replay.slices) {
    // Saturated one-state slices ARE the static model: exactly 1.0
    // utilization at exactly the static total power.
    EXPECT_EQ(slice.utilization, 1.0);
    EXPECT_EQ(slice.power_w, classic.total_w);
    EXPECT_EQ(slice.pstate, 0);
    EXPECT_EQ(slice.clock_frac, classic.effective_clock_frac);
  }
  EXPECT_EQ(replay.peak_power_w, classic.total_w);
  EXPECT_NEAR(replay.energy_j, classic.total_w * 0.2,
              1e-9 * classic.total_w);
  EXPECT_EQ(replay.transitions, 0);
}

// --- determinism through the engine ---------------------------------------

void expect_identical(const DvfsResult& a, const DvfsResult& b) {
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.energy_std_j, b.energy_std_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.peak_power_w, b.peak_power_w);
  EXPECT_EQ(a.completion_s, b.completion_s);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.backlog_max_s, b.backlog_max_s);
  EXPECT_EQ(a.mean_backlog_s, b.mean_backlog_s);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.seeds, b.seeds);
  ASSERT_EQ(a.trace.slices.size(), b.trace.slices.size());
  for (std::size_t i = 0; i < a.trace.slices.size(); ++i) {
    EXPECT_EQ(a.trace.slices[i].power_w, b.trace.slices[i].power_w);
    EXPECT_EQ(a.trace.slices[i].pstate, b.trace.slices[i].pstate);
    EXPECT_EQ(a.trace.slices[i].backlog_s, b.trace.slices[i].backlog_s);
  }
}

TEST(DvfsReplay, EngineReplayIsDeterministicAcrossWorkerCounts) {
  const DvfsConfig config = small_dvfs_config();
  const DvfsResult serial = core::run_scenario(config).dvfs();

  // 1 worker, N workers, and (when set) the GPUPOWER_WORKERS count the
  // acceptance protocol sweeps — all bit-identical to the serial loop.
  std::vector<int> worker_counts{1, 4};
  if (const int workers = core::read_bench_env().workers; workers >= 1) {
    worker_counts.push_back(workers);
  }
  for (const int workers : worker_counts) {
    core::EngineOptions options;
    options.workers = workers;
    core::ExperimentEngine engine(options);
    const core::ScenarioHandle handle = engine.submit(config);
    expect_identical(serial, handle.get().dvfs());
  }
}

TEST(DvfsReplay, EngineCachesIdenticalSubmissions) {
  core::ExperimentEngine engine(core::EngineOptions::with_workers(2));
  const DvfsConfig config = small_dvfs_config();
  const core::ScenarioHandle first = engine.submit(config);
  const core::ScenarioHandle second = engine.submit(config);
  engine.wait_all();
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(&first.get(), &second.get());

  // A different governor is a different job.
  DvfsConfig oracle = config;
  oracle.governor.policy = GovernorConfig::Policy::kOracle;
  (void)engine.submit(oracle);
  engine.wait_all();
  EXPECT_EQ(engine.stats().jobs_computed, 2u);
}

TEST(DvfsReplay, EngineRejectsDegenerateConfigs) {
  core::ExperimentEngine engine(core::EngineOptions::with_workers(1));
  DvfsConfig config = small_dvfs_config();
  config.experiment.seeds = 0;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);
  config = small_dvfs_config();
  config.slice_s = 0.0;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);
  config = small_dvfs_config();
  config.timeline = WorkloadTimeline{};
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);
}

// --- utilization-trace round trip -----------------------------------------

TEST(DvfsReplay, TimelineSurvivesTheUtilTraceRoundTrip) {
  const WorkloadTimeline original =
      parse_timeline("burst(period=0.1, duty=50%, high=80%, low=20%, dur=0.4)")
          .timeline;
  // Sample on a grid that divides every phase boundary, rebuild, and the
  // schedule is unchanged (equal-utilization neighbours re-merge).
  const telemetry::UtilTrace trace = original.to_util_trace(0.01);
  const WorkloadTimeline rebuilt = WorkloadTimeline::from_trace(trace);
  ASSERT_EQ(rebuilt.phases().size(), original.phases().size());
  for (std::size_t i = 0; i < original.phases().size(); ++i) {
    EXPECT_NEAR(rebuilt.phases()[i].duration_s,
                original.phases()[i].duration_s, 1e-9);
    EXPECT_DOUBLE_EQ(rebuilt.phases()[i].utilization,
                     original.phases()[i].utilization);
  }
}

TEST(DvfsReplay, RecordedReplayUtilizationDrivesAnEquivalentReplay) {
  const DvfsConfig config = small_dvfs_config();
  const WorkingPoint wp = working_point(config);
  const PStateTable table = PStateTable::for_device(wp.dev, config.pstates);
  const TimelineReplayer replayer(wp.dev, wp.problem, config.experiment.dtype,
                                  wp.activity, table);

  // Record a max-clock replay's realized utilization (what DCGM would log),
  // then replay the recording: offered == realized at max clock, so the
  // recorded trace must reproduce the original energy.
  GovernorConfig fixed;
  fixed.policy = GovernorConfig::Policy::kFixed;
  const auto governor = make_governor(fixed);
  const ReplayResult original =
      replayer.replay(config.timeline, *governor, config.slice_s);
  const telemetry::UtilTrace recorded = original.util_trace();

  const WorkloadTimeline rebuilt = WorkloadTimeline::from_trace(recorded);
  const ReplayResult replayed =
      replayer.replay(rebuilt, *governor, config.slice_s);
  EXPECT_NEAR(replayed.energy_j, original.energy_j,
              1e-9 * original.energy_j);
  EXPECT_NEAR(replayed.work_completed_s, original.work_completed_s, 1e-9);
}

TEST(DvfsReplay, UtilTraceCsvRoundTrips) {
  telemetry::UtilTrace trace;
  trace.push(0.1, 0.25);
  trace.push(0.2, 1.0);
  trace.push(0.3, 0.0);
  std::stringstream csv;
  trace.write_csv(csv);

  telemetry::UtilTrace parsed;
  ASSERT_TRUE(telemetry::UtilTrace::read_csv(csv, parsed));
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed.samples()[i].t_s, trace.samples()[i].t_s);
    EXPECT_DOUBLE_EQ(parsed.samples()[i].utilization,
                     trace.samples()[i].utilization);
  }
}

TEST(DvfsReplay, TrailingPartialSliceStillReceivesItsLoad) {
  // A timeline whose duration is not a multiple of slice_s (the norm for
  // trace-driven replay): the final partial slice must contribute its
  // offered work instead of sampling past the end.
  const DvfsConfig config = small_dvfs_config();
  const WorkingPoint wp = working_point(config);
  const PStateTable table = PStateTable::boost_only(wp.dev);
  const TimelineReplayer replayer(wp.dev, wp.problem, config.experiment.dtype,
                                  wp.activity, table);
  const auto governor =
      make_governor(GovernorConfig{GovernorConfig::Policy::kFixed});

  const ReplayResult replay = replayer.replay(
      WorkloadTimeline::constant(1.0, 0.015), *governor, 0.01);
  EXPECT_NEAR(replay.work_offered_s, 0.015, 1e-12);
  EXPECT_NEAR(replay.work_completed_s, 0.015, 1e-9);
  EXPECT_NEAR(replay.completion_s, 0.015, 1e-9);
}

TEST(TimelineDsl, SingleStepRampTakesTheMidpoint) {
  const auto parsed = parse_timeline("ramp(from=0, to=1, steps=1, dur=1)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.timeline.phases().size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.timeline.phases()[0].utilization, 0.5);
}

// --- per-phase input patterns ---------------------------------------------

TEST(DvfsReplay, PhasePatternEqualToBaseIsBitIdentical) {
  // A phase override pointing at a pattern identical to the experiment's
  // base pattern must reproduce the pattern-free replay bit for bit: the
  // variant's activity walk sees the same inputs and the same seed.
  DvfsConfig baseline = small_dvfs_config();
  baseline.timeline = parse_timeline("constant(util=80%, dur=0.3)").timeline;

  DvfsConfig overridden = baseline;
  overridden.phase_patterns = {baseline.experiment.pattern};
  overridden.timeline =
      parse_timeline("constant(util=80%, dur=0.3, pattern=0)").timeline;

  expect_identical(core::run_scenario(baseline).dvfs(),
                   core::run_scenario(overridden).dvfs());
}

TEST(DvfsReplay, SparsePhasePatternLowersPowerInItsPhase) {
  // Activity — not just load — varies over time: a 90%-sparse phase
  // toggles far fewer wires than the Gaussian base at the same offered
  // utilization, so its slices draw less power.
  DvfsConfig config = small_dvfs_config();
  config.experiment.seeds = 1;
  config.governor.policy = GovernorConfig::Policy::kFixed;
  config.governor.fixed_pstate = 0;
  const auto sparse = core::parse_pattern("gaussian() | sparsity(90%)");
  ASSERT_TRUE(sparse.ok) << sparse.error;
  config.phase_patterns = {sparse.spec};
  config.timeline =
      parse_timeline(
          "constant(util=1, dur=0.2) | constant(util=1, dur=0.2, pattern=0)")
          .timeline;

  const DvfsResult result = core::run_scenario(config).dvfs();
  const auto& slices = result.trace.slices;
  ASSERT_GE(slices.size(), 40u);
  // Compare a slice well inside each phase (same P-state, same load).
  const double base_power = slices[5].power_w;
  const double sparse_power = slices[25].power_w;
  EXPECT_EQ(slices[5].pstate, slices[25].pstate);
  EXPECT_LT(sparse_power, base_power);
}

TEST(DvfsReplay, DanglingPhasePatternsFailValidation) {
  // A timeline referencing a pattern index with no configured pattern is
  // rejected.
  DvfsConfig dangling = small_dvfs_config();
  dangling.timeline =
      parse_timeline("constant(util=1, dur=0.1, pattern=0)").timeline;
  EXPECT_THROW((void)core::run_scenario(dangling), std::invalid_argument);
}

// --- backlog / latency accounting -----------------------------------------

TEST(DvfsReplay, DeepStateBuildsBacklogAndPaysTheDrainTail) {
  const DvfsConfig config = small_dvfs_config();
  const WorkingPoint wp = working_point(config);
  const PStateTable table = PStateTable::for_device(wp.dev, 5, 0.40);
  const TimelineReplayer replayer(wp.dev, wp.problem, config.experiment.dtype,
                                  wp.activity, table);

  GovernorConfig parked;
  parked.policy = GovernorConfig::Policy::kFixed;
  parked.fixed_pstate = 4;  // 0.40 clock against a saturating load
  const auto governor = make_governor(parked);
  const WorkloadTimeline saturating = WorkloadTimeline::constant(1.0, 0.3);
  const ReplayResult replay =
      replayer.replay(saturating, *governor, 0.01);

  EXPECT_GT(replay.backlog_max_s, 0.0);
  // All offered work eventually completes, past the timeline's end.
  EXPECT_NEAR(replay.work_completed_s, replay.work_offered_s, 1e-9);
  EXPECT_GT(replay.completion_s, saturating.duration_s());
  // 0.3 s of boost-clock work at a 0.40 clock takes ~0.75 s.
  EXPECT_NEAR(replay.completion_s, 0.3 / 0.40, 0.02);
  EXPECT_LT(replay.slices.back().backlog_s, 1e-9);
}

TEST(DvfsReplay, UtilizationGovernorSavesEnergyOnBurstyLoad) {
  // The acceptance-criteria scenario: on a bursty timeline the threshold
  // governor must beat fixed-max-clock energy while the backlog it adds
  // stays bounded.
  DvfsConfig config = small_dvfs_config();
  config.governor = GovernorConfig{};  // utilization policy defaults
  config.timeline =
      parse_timeline("burst(period=0.2, duty=30%, high=1, low=20%, dur=2)")
          .timeline;
  const DvfsResult governed = core::run_scenario(config).dvfs();

  DvfsConfig fixed_config = config;
  fixed_config.governor.policy = GovernorConfig::Policy::kFixed;
  fixed_config.governor.fixed_pstate = 0;
  const DvfsResult fixed_max = core::run_scenario(fixed_config).dvfs();

  DvfsConfig oracle_config = config;
  oracle_config.governor.policy = GovernorConfig::Policy::kOracle;
  const DvfsResult oracle = core::run_scenario(oracle_config).dvfs();

  EXPECT_LT(governed.energy_j, fixed_max.energy_j);
  EXPECT_LE(oracle.energy_j, governed.energy_j);
  EXPECT_GT(governed.transitions, 0.0);
  EXPECT_LT(governed.backlog_max_s, 0.05);
}

}  // namespace
}  // namespace gpupower::gpusim::dvfs
