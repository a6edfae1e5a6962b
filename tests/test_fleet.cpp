// Fleet power-capping suite: allocator conservation (sum of grants <= cap
// on every slice), the RC thermal model (heat-up/cool-down monotonicity,
// throttle hysteresis without flapping), the single-device equivalence
// guarantee (fleet of one, infinite cap, thermal off == the dvfs scenario
// bit for bit), determinism through the engine at different worker counts, and
// the capped-fleet behaviours examples/specs/fleet_capping.json sweeps.
#include "gpusim/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <vector>

#include "core/config_builder.hpp"
#include "core/dvfs_experiment.hpp"
#include "core/engine.hpp"
#include "core/env.hpp"
#include "core/fleet_experiment.hpp"
#include "core/scenario.hpp"
#include "gpusim/fleet/allocator.hpp"
#include "gpusim/fleet/thermal.hpp"
#include "gpusim/simulator.hpp"

namespace gpupower::gpusim::fleet {
namespace {

using core::DvfsConfig;
using core::FleetConfig;
using core::FleetResult;

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- allocators -----------------------------------------------------------

std::vector<DeviceDemand> sample_demands() {
  // Device 2 is idle-ish, device 3 inactive; floors below demands.
  std::vector<DeviceDemand> demands(4);
  demands[0] = {220.0, 60.0, 0.08, 0.004, 3, true};
  demands[1] = {180.0, 55.0, 0.02, 0.005, 1, true};
  demands[2] = {52.0, 50.0, 0.0, 0.006, 2, true};
  demands[3] = {0.0, 0.0, 0.0, 0.0, 4, false};
  return demands;
}

TEST(FleetAllocator, EveryPolicyConservesTheCap) {
  const auto demands = sample_demands();
  for (const auto policy :
       {AllocatorConfig::Policy::kUniform,
        AllocatorConfig::Policy::kProportional,
        AllocatorConfig::Policy::kPriority,
        AllocatorConfig::Policy::kGreedyOracle}) {
    AllocatorConfig config;
    config.policy = policy;
    const auto allocator = make_allocator(config);
    for (const double cap : {100.0, 250.0, 600.0}) {
      std::vector<double> budgets(demands.size(), -1.0);
      allocator->allocate(demands, cap, budgets);
      double total = 0.0;
      for (std::size_t i = 0; i < demands.size(); ++i) {
        EXPECT_GE(budgets[i], 0.0);
        if (!demands[i].active) {
          EXPECT_EQ(budgets[i], 0.0);
        }
        total += budgets[i];
      }
      EXPECT_LE(total, cap * (1.0 + 1e-12))
          << name(policy) << " cap=" << cap;
    }
  }
}

TEST(FleetAllocator, UniformSplitsEquallyAmongActiveDevices) {
  const auto demands = sample_demands();
  const auto allocator = make_allocator({AllocatorConfig::Policy::kUniform});
  std::vector<double> budgets(demands.size());
  allocator->allocate(demands, 300.0, budgets);
  EXPECT_DOUBLE_EQ(budgets[0], 100.0);
  EXPECT_DOUBLE_EQ(budgets[1], 100.0);
  EXPECT_DOUBLE_EQ(budgets[2], 100.0);
  EXPECT_DOUBLE_EQ(budgets[3], 0.0);
}

TEST(FleetAllocator, ProportionalGrantsDemandWhenItFitsAndScalesWhenNot) {
  const auto demands = sample_demands();
  const auto allocator =
      make_allocator({AllocatorConfig::Policy::kProportional});
  std::vector<double> budgets(demands.size());
  allocator->allocate(demands, 600.0, budgets);  // 452 total fits
  EXPECT_DOUBLE_EQ(budgets[0], 220.0);
  EXPECT_DOUBLE_EQ(budgets[1], 180.0);
  EXPECT_DOUBLE_EQ(budgets[2], 52.0);

  allocator->allocate(demands, 226.0, budgets);  // half of total demand
  EXPECT_DOUBLE_EQ(budgets[0], 110.0);
  EXPECT_DOUBLE_EQ(budgets[1], 90.0);
  EXPECT_DOUBLE_EQ(budgets[2], 26.0);
}

TEST(FleetAllocator, PriorityFundsFloorsFirstThenFillsInOrder) {
  const auto demands = sample_demands();
  const auto allocator = make_allocator({AllocatorConfig::Policy::kPriority});
  std::vector<double> budgets(demands.size());
  // Floors sum to 165; the remaining 85 goes to device 0 (priority 3).
  allocator->allocate(demands, 250.0, budgets);
  EXPECT_DOUBLE_EQ(budgets[0], 145.0);  // floor 60 + 85
  EXPECT_DOUBLE_EQ(budgets[1], 55.0);   // floor only
  EXPECT_DOUBLE_EQ(budgets[2], 50.0);   // floor only
  EXPECT_DOUBLE_EQ(budgets[3], 0.0);
}

// --- thermal model --------------------------------------------------------

ThermalConfig test_thermal() {
  ThermalConfig config;
  config.enabled = true;
  config.ambient_c = 30.0;
  config.tau_s = 2.0;
  config.trip_c = 80.0;
  config.release_c = 70.0;
  return config;
}

TEST(FleetThermal, HeatsMonotonicallyTowardTheRCAsymptote) {
  const ThermalConfig config = test_thermal();
  ThermalState state(config, 0.12);
  const double target = 30.0 + 0.12 * 300.0;  // ambient + R * P
  double last = state.temperature_c();
  EXPECT_DOUBLE_EQ(last, 30.0);
  for (int i = 0; i < 400; ++i) {
    state.step(300.0, 0.05);
    EXPECT_GT(state.temperature_c(), last);
    EXPECT_LT(state.temperature_c(), target);
    last = state.temperature_c();
  }
  EXPECT_NEAR(state.temperature_c(), target, 0.05);
}

TEST(FleetThermal, CoolsMonotonicallyTowardAmbientAtZeroPower) {
  ThermalConfig config = test_thermal();
  config.initial_c = 85.0;
  ThermalState state(config, 0.12);
  double last = state.temperature_c();
  for (int i = 0; i < 400; ++i) {
    state.step(0.0, 0.05);
    EXPECT_LT(state.temperature_c(), last);
    EXPECT_GT(state.temperature_c(), 30.0);
    last = state.temperature_c();
  }
  EXPECT_NEAR(state.temperature_c(), 30.0, 0.05);
}

TEST(FleetThermal, ThrottleHysteresisDoesNotFlap) {
  const ThermalConfig config = test_thermal();
  ThermalState state(config, 0.12);
  // Heat past the trip point.
  while (!state.throttling()) state.step(600.0, 0.05);
  EXPECT_GE(state.temperature_c(), config.trip_c);

  // Cool through the hysteresis band: the latch must hold everywhere
  // between release and trip — no flapping on slice-scale noise.
  int transitions = 0;
  bool last = state.throttling();
  while (state.temperature_c() > config.release_c) {
    state.step(0.0, 0.02);
    if (state.throttling() != last) {
      ++transitions;
      last = state.throttling();
    }
    if (state.temperature_c() > config.release_c) {
      EXPECT_TRUE(state.throttling());
    }
  }
  EXPECT_FALSE(state.throttling());  // released at/below release_c
  EXPECT_EQ(transitions, 1);         // exactly one off transition
}

// --- shared fixture -------------------------------------------------------

DvfsConfig small_dvfs_config() {
  DvfsConfig config;
  config.experiment.dtype = gpupower::numeric::DType::kFP16;
  config.experiment.n = 64;
  config.experiment.seeds = 2;
  config.experiment.sampling = SamplingPlan::fast(6, 0.5);
  config.slice_s = 0.01;
  config.pstates = 5;
  config.governor.policy = dvfs::GovernorConfig::Policy::kUtilization;
  config.timeline =
      dvfs::parse_timeline(
          "burst(period=0.1, duty=30%, high=1, low=10%, dur=0.5)")
          .timeline;
  return config;
}

/// The fleet that must reproduce `config` bit for bit: one device, same
/// GPU/governor/timeline, infinite cap, thermal off.
FleetConfig fleet_of_one(const DvfsConfig& config) {
  FleetConfig fleet_config;
  fleet_config.experiment = config.experiment;
  fleet_config.timelines = {config.timeline};
  core::FleetDeviceConfig device;
  device.gpu = config.experiment.gpu;
  device.governor = config.governor;
  fleet_config.devices = {device};
  fleet_config.phase_patterns = config.phase_patterns;
  fleet_config.slice_s = config.slice_s;
  fleet_config.pstates = config.pstates;
  return fleet_config;  // allocator defaults: uncapped; thermal off
}

FleetConfig small_fleet_config(int devices = 3) {
  const DvfsConfig dvfs_config = small_dvfs_config();
  FleetConfig config = fleet_of_one(dvfs_config);
  config.devices.clear();
  for (int i = 0; i < devices; ++i) {
    core::FleetDeviceConfig device;
    device.gpu = dvfs_config.experiment.gpu;
    device.governor = dvfs_config.governor;
    device.timeline = i % static_cast<int>(config.timelines.size());
    device.priority = devices - i;
    config.devices.push_back(device);
  }
  return config;
}

void expect_identical_replays(const dvfs::ReplayResult& a,
                              const dvfs::ReplayResult& b) {
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.peak_power_w, b.peak_power_w);
  EXPECT_EQ(a.completion_s, b.completion_s);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.backlog_max_s, b.backlog_max_s);
  EXPECT_EQ(a.mean_backlog_s, b.mean_backlog_s);
  EXPECT_EQ(a.transitions, b.transitions);
  ASSERT_EQ(a.slices.size(), b.slices.size());
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    EXPECT_EQ(a.slices[i].power_w, b.slices[i].power_w);
    EXPECT_EQ(a.slices[i].pstate, b.slices[i].pstate);
    EXPECT_EQ(a.slices[i].utilization, b.slices[i].utilization);
    EXPECT_EQ(a.slices[i].backlog_s, b.slices[i].backlog_s);
    EXPECT_EQ(a.slices[i].clock_frac, b.slices[i].clock_frac);
  }
}

// --- the equivalence guarantee --------------------------------------------

TEST(Fleet, SingleDeviceInfiniteCapThermalOffMatchesDvfsBitForBit) {
  const DvfsConfig dvfs_config = small_dvfs_config();
  const FleetConfig fleet_config = fleet_of_one(dvfs_config);

  const core::DvfsResult dvfs_result = core::run_scenario(dvfs_config).dvfs();
  const FleetResult fleet_result = core::run_scenario(fleet_config).fleet();

  EXPECT_EQ(fleet_result.energy_j, dvfs_result.energy_j);
  EXPECT_EQ(fleet_result.energy_std_j, dvfs_result.energy_std_j);
  EXPECT_EQ(fleet_result.completion_s, dvfs_result.completion_s);
  EXPECT_EQ(fleet_result.backlog_max_s, dvfs_result.backlog_max_s);
  EXPECT_EQ(fleet_result.mean_backlog_s, dvfs_result.mean_backlog_s);
  EXPECT_EQ(fleet_result.transitions, dvfs_result.transitions);
  ASSERT_EQ(fleet_result.trace.devices.size(), 1u);
  expect_identical_replays(fleet_result.trace.devices[0].replay,
                           dvfs_result.trace);
  // Fleet-only series stay empty in the equivalence configuration.
  EXPECT_TRUE(fleet_result.trace.devices[0].temperature_c.empty());
  EXPECT_TRUE(fleet_result.trace.devices[0].budget_w.empty());
}

TEST(Fleet, EngineFleetMatchesDvfsInTheDegenerateCase) {
  const DvfsConfig dvfs_config = small_dvfs_config();
  core::ExperimentEngine engine(core::EngineOptions::with_workers(2));
  const core::ScenarioHandle dvfs_handle = engine.submit(dvfs_config);
  const core::ScenarioHandle fleet_handle =
      engine.submit(fleet_of_one(dvfs_config));
  engine.wait_all();
  const FleetResult& fleet_result = fleet_handle.get().fleet();
  const core::DvfsResult& dvfs_result = dvfs_handle.get().dvfs();
  EXPECT_EQ(fleet_result.energy_j, dvfs_result.energy_j);
  expect_identical_replays(fleet_result.trace.devices[0].replay,
                           dvfs_result.trace);
}

// --- determinism through the engine ---------------------------------------

TEST(Fleet, EngineReplayIsDeterministicAcrossWorkerCounts) {
  FleetConfig config = small_fleet_config();
  config.allocator.policy = AllocatorConfig::Policy::kProportional;
  config.allocator.cap_w = 300.0;
  config.thermal = test_thermal();
  const FleetResult serial = core::run_scenario(config).fleet();

  std::vector<int> worker_counts{1, 4};
  if (const int workers = core::read_bench_env().workers; workers >= 1) {
    worker_counts.push_back(workers);
  }
  for (const int workers : worker_counts) {
    core::EngineOptions options;
    options.workers = workers;
    core::ExperimentEngine engine(options);
    const core::ScenarioHandle handle = engine.submit(config);
    const FleetResult& parallel = handle.get().fleet();
    EXPECT_EQ(serial.energy_j, parallel.energy_j);
    EXPECT_EQ(serial.energy_std_j, parallel.energy_std_j);
    EXPECT_EQ(serial.completion_s, parallel.completion_s);
    EXPECT_EQ(serial.backlog_max_s, parallel.backlog_max_s);
    EXPECT_EQ(serial.over_cap_slices, parallel.over_cap_slices);
    ASSERT_EQ(serial.trace.fleet_power_w.size(),
              parallel.trace.fleet_power_w.size());
    for (std::size_t i = 0; i < serial.trace.fleet_power_w.size(); ++i) {
      EXPECT_EQ(serial.trace.fleet_power_w[i],
                parallel.trace.fleet_power_w[i]);
    }
    ASSERT_EQ(serial.trace.devices.size(), parallel.trace.devices.size());
    for (std::size_t d = 0; d < serial.trace.devices.size(); ++d) {
      expect_identical_replays(serial.trace.devices[d].replay,
                               parallel.trace.devices[d].replay);
      EXPECT_EQ(serial.trace.devices[d].temperature_c,
                parallel.trace.devices[d].temperature_c);
      EXPECT_EQ(serial.trace.devices[d].budget_w,
                parallel.trace.devices[d].budget_w);
    }
  }
}

TEST(Fleet, EngineCachesIdenticalSubmissionsAndSeparatesAllocators) {
  core::ExperimentEngine engine(core::EngineOptions::with_workers(2));
  FleetConfig config = small_fleet_config();
  config.allocator.cap_w = 250.0;
  const core::ScenarioHandle first = engine.submit(config);
  const core::ScenarioHandle second = engine.submit(config);
  engine.wait_all();
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(&first.get(), &second.get());

  FleetConfig uniform = config;
  uniform.allocator.policy = AllocatorConfig::Policy::kUniform;
  (void)engine.submit(uniform);
  FleetConfig hotter = config;
  hotter.thermal = test_thermal();
  (void)engine.submit(hotter);
  engine.wait_all();
  EXPECT_EQ(engine.stats().jobs_computed, 3u);
}

// --- capped-fleet behaviour -----------------------------------------------

TEST(Fleet, GrantedBudgetsRespectTheCapOnEverySlice) {
  FleetConfig config = small_fleet_config(4);
  config.allocator.policy = AllocatorConfig::Policy::kGreedyOracle;
  config.allocator.cap_w = 260.0;
  const FleetResult result = core::run_scenario(config).fleet();

  // Reconstruct per-slice budget sums from the seed-0 trace: devices end
  // at different times, so walk to the longest series.
  std::size_t slices = 0;
  for (const FleetDeviceRun& device : result.trace.devices) {
    slices = std::max(slices, device.budget_w.size());
    EXPECT_EQ(device.budget_w.size(), device.replay.slices.size());
  }
  ASSERT_GT(slices, 0u);
  for (std::size_t s = 0; s < slices; ++s) {
    double total = 0.0;
    for (const FleetDeviceRun& device : result.trace.devices) {
      if (s < device.budget_w.size()) total += device.budget_w[s];
    }
    EXPECT_LE(total, config.allocator.cap_w * (1.0 + 1e-9))
        << "slice " << s;
  }
}

TEST(Fleet, TightCapForcesDeeperStatesAndBacklog) {
  FleetConfig config = small_fleet_config(4);
  const FleetResult uncapped = core::run_scenario(config).fleet();

  FleetConfig capped = config;
  capped.allocator.policy = AllocatorConfig::Policy::kUniform;
  // Between the fleet's floor (4 x ~42 W idle) and its uncapped peak: the
  // cap binds during bursts but stays physically enforceable.
  capped.allocator.cap_w =
      0.5 * (uncapped.peak_power_w +
             4.0 * device(config.devices[0].gpu).idle_w);
  ASSERT_LT(capped.allocator.cap_w, uncapped.peak_power_w);
  const FleetResult result = core::run_scenario(capped).fleet();

  EXPECT_LE(result.peak_power_w,
            capped.allocator.cap_w * (1.0 + 1e-9));
  EXPECT_GT(result.backlog_max_s, uncapped.backlog_max_s);
  EXPECT_LT(result.energy_j, uncapped.energy_j);
  int clamped = 0;
  for (const core::FleetDeviceSummary& device : result.devices) {
    clamped += static_cast<int>(device.budget_clamped_slices);
  }
  EXPECT_GT(clamped, 0);
}

TEST(Fleet, P99BacklogIsAFleetQuantileBelowTheMax) {
  // Staggered load means the devices' worst backlogs differ; the p99
  // across devices interpolates between the top order statistics, so it
  // stays positive, at most the max, and above the across-device mean
  // whenever the distribution has a tail.
  FleetConfig config = small_fleet_config(4);
  config.allocator.policy = AllocatorConfig::Policy::kUniform;
  const FleetResult uncapped = core::run_scenario(config).fleet();
  FleetConfig capped = config;
  capped.allocator.cap_w =
      0.5 * (uncapped.peak_power_w +
             4.0 * device(config.devices[0].gpu).idle_w);
  const FleetResult result = core::run_scenario(capped).fleet();

  EXPECT_GT(result.backlog_p99_s, 0.0);
  EXPECT_LE(result.backlog_p99_s, result.backlog_max_s + 1e-12);
  // The result codec carries the SLO metric.
  const analysis::JsonValue json =
      core::scenario_result_to_json(core::ScenarioResult(result));
  ASSERT_NE(json.find("backlog_p99_s"), nullptr);
  EXPECT_EQ(json.find("backlog_p99_s")->as_number(), result.backlog_p99_s);
}

TEST(Fleet, DemandAwareAllocationBeatsUniformOnBacklog) {
  // Staggered bursts: devices peak at different times, so a demand signal
  // can move budget to whoever is bursting.  The uniform split starves the
  // burster while idle devices hold unused headroom.
  FleetConfig config = small_fleet_config(3);
  config.timelines.clear();
  for (int i = 0; i < 3; ++i) {
    dvfs::WorkloadTimeline timeline;
    if (i > 0) {
      timeline =
          dvfs::WorkloadTimeline::idle(0.15 * static_cast<double>(i));
    }
    timeline.append(
        dvfs::parse_timeline(
            "burst(period=0.45, duty=30%, high=1, low=10%, dur=0.9)")
            .timeline);
    config.timelines.push_back(timeline);
    config.devices[static_cast<std::size_t>(i)].timeline = i;
  }
  const FleetResult uncapped = core::run_scenario(config).fleet();

  FleetConfig uniform = config;
  uniform.allocator.policy = AllocatorConfig::Policy::kUniform;
  uniform.allocator.cap_w =
      0.45 * (uncapped.peak_power_w +
              3.0 * device(config.devices[0].gpu).idle_w);
  FleetConfig proportional = uniform;
  proportional.allocator.policy = AllocatorConfig::Policy::kProportional;

  const FleetResult uniform_result = core::run_scenario(uniform).fleet();
  const FleetResult proportional_result =
      core::run_scenario(proportional).fleet();
  EXPECT_LT(proportional_result.backlog_max_s,
            uniform_result.backlog_max_s);
  EXPECT_LE(proportional_result.completion_s,
            uniform_result.completion_s);
}

// --- thermal threading through the fleet ----------------------------------

TEST(Fleet, ThermalStateThreadsAcrossSlicesAndThrottlesWhenHot) {
  FleetConfig config = small_fleet_config(1);
  config.timelines = {dvfs::WorkloadTimeline::constant(1.0, 0.4)};
  config.devices[0].governor.policy = dvfs::GovernorConfig::Policy::kFixed;
  config.devices[0].governor.fixed_pstate = 0;
  config.thermal = test_thermal();
  // A hot die at start plus a low trip point: the device must throttle
  // immediately and recover only after cooling through the release band.
  config.thermal.initial_c = 90.0;
  config.thermal.trip_c = 60.0;
  config.thermal.release_c = 45.0;
  config.thermal.tau_s = 0.2;  // fast RC so the test sees both regimes
  const FleetResult result = core::run_scenario(config).fleet();

  ASSERT_EQ(result.trace.devices.size(), 1u);
  const FleetDeviceRun& device = result.trace.devices[0];
  ASSERT_FALSE(device.temperature_c.empty());
  EXPECT_GT(device.throttled_slices, 0);
  // While throttling, the clamp parks the device in the deepest state.
  EXPECT_EQ(device.replay.slices.front().pstate, config.pstates - 1);
  // The die cools (power at the throttled state sits below the hot start)
  // and the device eventually returns to boost once released.
  EXPECT_LT(device.temperature_c.back(), 90.0);
  EXPECT_EQ(device.replay.slices.back().pstate, 0);
  // Once released, the latch stays open: pstate transitions back to boost
  // exactly once (no trip/release flapping at slice granularity).
  int throttle_exits = 0;
  for (std::size_t s = 1; s < device.replay.slices.size(); ++s) {
    if (device.replay.slices[s - 1].pstate == config.pstates - 1 &&
        device.replay.slices[s].pstate < config.pstates - 1) {
      ++throttle_exits;
    }
  }
  EXPECT_EQ(throttle_exits, 1);
}

TEST(Fleet, SustainedLoadHeatsTheDieMonotonically) {
  FleetConfig config = small_fleet_config(1);
  config.timelines = {dvfs::WorkloadTimeline::constant(1.0, 0.3)};
  config.devices[0].governor.policy = dvfs::GovernorConfig::Policy::kFixed;
  config.thermal = test_thermal();
  config.thermal.trip_c = 200.0;  // never throttles; pure heat-up
  config.thermal.release_c = 190.0;
  const FleetResult result = core::run_scenario(config).fleet();

  const std::vector<double>& temps =
      result.trace.devices[0].temperature_c;
  ASSERT_GE(temps.size(), 2u);
  for (std::size_t i = 1; i < temps.size(); ++i) {
    EXPECT_GT(temps[i], temps[i - 1]) << "slice " << i;
  }
  EXPECT_GT(result.devices[0].peak_temperature_c, 30.0);
}

// --- validation -----------------------------------------------------------

TEST(Fleet, RejectsDegenerateConfigs) {
  core::ExperimentEngine engine(core::EngineOptions::with_workers(1));
  FleetConfig config = small_fleet_config();
  config.experiment.seeds = 0;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);

  config = small_fleet_config();
  config.devices.clear();
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);

  config = small_fleet_config();
  config.devices[0].timeline = 7;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);

  config = small_fleet_config();
  config.thermal = test_thermal();
  config.thermal.release_c = config.thermal.trip_c;  // no hysteresis band
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);

  config = small_fleet_config();
  config.allocator.cap_w = 0.0;
  EXPECT_THROW((void)engine.submit(config), std::invalid_argument);
}

TEST(Fleet, BuilderAssemblesAndValidates) {
  const DvfsConfig dvfs_config = small_dvfs_config();
  core::FleetConfigBuilder builder;
  builder.experiment(dvfs_config.experiment)
      .add_timeline("burst(period=0.1, duty=30%, dur=0.4)")
      .add_device(GpuModel::kA100PCIe, "utilization(up=80%, down=30%)")
      .add_device(GpuModel::kRTX6000, "fixed(0)", /*timeline=*/0,
                  /*priority=*/2)
      .allocator("greedy")
      .cap(400.0)
      .slice(0.01)
      .pstates(5);
  ASSERT_TRUE(builder.valid()) << builder.error();
  const FleetConfig config = builder.build();
  EXPECT_EQ(config.devices.size(), 2u);
  EXPECT_EQ(config.devices[1].gpu, GpuModel::kRTX6000);
  EXPECT_EQ(config.allocator.policy,
            AllocatorConfig::Policy::kGreedyOracle);
  EXPECT_DOUBLE_EQ(config.allocator.cap_w, 400.0);

  // Heterogeneous fleets run: the two models draw different power.
  const FleetResult result = core::run_scenario(config).fleet();
  ASSERT_EQ(result.devices.size(), 2u);
  EXPECT_NE(result.devices[0].energy_j, result.devices[1].energy_j);

  core::FleetConfigBuilder invalid;
  invalid.experiment(dvfs_config.experiment)
      .add_device(GpuModel::kA100PCIe, "utilization(up=80%, down=30%)");
  EXPECT_FALSE(invalid.valid());  // no timeline
  EXPECT_FALSE(invalid.try_build().has_value());

  core::FleetConfigBuilder bad_allocator;
  bad_allocator.allocator("fairshare");
  EXPECT_FALSE(bad_allocator.valid());
}

}  // namespace
}  // namespace gpupower::gpusim::fleet
