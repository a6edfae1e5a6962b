// DVFS governor + P-state table suite: table construction from device
// descriptors, the governor DSL round trip, and — the core of it — the
// PowerMizer-style utilization governor's threshold/hysteresis state
// machine, transition by transition.
#include "gpusim/dvfs/governor.hpp"

#include <gtest/gtest.h>

#include "gpusim/device.hpp"
#include "gpusim/dvfs/pstate.hpp"

namespace gpupower::gpusim::dvfs {
namespace {

const DeviceDescriptor& a100() { return device(GpuModel::kA100PCIe); }

TEST(PStateTable, BoostOnlyIsTheExactBoostPoint) {
  const PStateTable table = PStateTable::boost_only(a100());
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].clock_frac, 1.0);
  EXPECT_EQ(table[0].voltage_scale, 1.0);
  EXPECT_DOUBLE_EQ(table[0].clock_ghz, a100().boost_clock_ghz);
}

TEST(PStateTable, ForDeviceSpansBoostToFloorMonotonically) {
  const PStateTable table = PStateTable::for_device(a100(), 5, 0.40, 0.65);
  ASSERT_EQ(table.size(), 5u);
  // P0 is exactly boost — the degenerate-case guarantee.
  EXPECT_EQ(table.boost().clock_frac, 1.0);
  EXPECT_EQ(table.boost().voltage_scale, 1.0);
  EXPECT_DOUBLE_EQ(table.deepest().clock_frac, 0.40);
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_LT(table[i].clock_frac, table[i - 1].clock_frac);
    EXPECT_LT(table[i].voltage_scale, table[i - 1].voltage_scale);
    EXPECT_EQ(table[i].index, static_cast<int>(i));
  }
  // Voltage follows the linear f-V curve down to the floor.
  EXPECT_NEAR(table.deepest().voltage_scale, 0.65 + 0.35 * 0.40, 1e-12);
}

TEST(PStateTable, ClampIndex) {
  const PStateTable table = PStateTable::for_device(a100(), 4);
  EXPECT_EQ(table.clamp_index(-3), 0);
  EXPECT_EQ(table.clamp_index(2), 2);
  EXPECT_EQ(table.clamp_index(99), 3);
}

// --- governor DSL ---------------------------------------------------------

TEST(GovernorDsl, ParsesEveryPolicy) {
  auto fixed = parse_governor("fixed(2)");
  ASSERT_TRUE(fixed.ok) << fixed.error;
  EXPECT_EQ(fixed.config.policy, GovernorConfig::Policy::kFixed);
  EXPECT_EQ(fixed.config.fixed_pstate, 2);

  auto bare_fixed = parse_governor("fixed()");
  ASSERT_TRUE(bare_fixed.ok) << bare_fixed.error;
  EXPECT_EQ(bare_fixed.config.fixed_pstate, 0);

  auto util = parse_governor(
      " utilization( up=85%, down=20%, up_hold=0.02, down_hold=0.5 ) ");
  ASSERT_TRUE(util.ok) << util.error;
  EXPECT_EQ(util.config.policy, GovernorConfig::Policy::kUtilization);
  EXPECT_DOUBLE_EQ(util.config.boost_util, 0.85);
  EXPECT_DOUBLE_EQ(util.config.low_util, 0.20);
  EXPECT_DOUBLE_EQ(util.config.boost_hold_s, 0.02);
  EXPECT_DOUBLE_EQ(util.config.low_hold_s, 0.5);

  auto oracle = parse_governor("oracle()");
  ASSERT_TRUE(oracle.ok) << oracle.error;
  EXPECT_EQ(oracle.config.policy, GovernorConfig::Policy::kOracle);
}

TEST(GovernorDsl, OmittedKeysKeepDefaults) {
  const GovernorConfig defaults;
  auto util = parse_governor("utilization(up=90%)");
  ASSERT_TRUE(util.ok) << util.error;
  EXPECT_DOUBLE_EQ(util.config.boost_util, 0.90);
  EXPECT_DOUBLE_EQ(util.config.low_util, defaults.low_util);
  EXPECT_DOUBLE_EQ(util.config.boost_hold_s, defaults.boost_hold_s);
  EXPECT_DOUBLE_EQ(util.config.low_hold_s, defaults.low_hold_s);
}

TEST(GovernorDsl, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_governor("").ok);
  EXPECT_FALSE(parse_governor("turbo()").ok);
  EXPECT_FALSE(parse_governor("fixed(-1)").ok);
  EXPECT_FALSE(parse_governor("oracle(1)").ok);
  EXPECT_FALSE(parse_governor("utilization(warp=9)").ok);
  // up < down is a contradiction the parser rejects.
  EXPECT_FALSE(parse_governor("utilization(up=20%, down=80%)").ok);
  EXPECT_FALSE(parse_governor("utilization(up=150%)").ok);
  EXPECT_FALSE(parse_governor("fixed(0) trailing").ok);
  const auto failed = parse_governor("utilization(up=80%, dwn=30%)");
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("dwn"), std::string::npos);
}

TEST(GovernorDsl, RoundTripsThroughToDslExactly) {
  for (const char* spec :
       {"fixed(3)", "oracle()",
        "utilization(up=75%, down=25%, up_hold=0.015, down_hold=0.2)",
        // Past six significant digits, where a %g printer would round.
        "utilization(up=0.80000004, down=0.123456789, up_hold=1e-07)"}) {
    const auto first = parse_governor(spec);
    ASSERT_TRUE(first.ok) << first.error;
    const auto second = parse_governor(to_dsl(first.config));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(first.config, second.config) << spec;
  }
  EXPECT_EQ(to_dsl(parse_governor("utilization(up=75%, down=25%)").config),
            "utilization(up=0.75, down=0.25, up_hold=0.01, down_hold=0.03)");
  // NaN would print as null in a spec document, colliding with infinity.
  EXPECT_FALSE(parse_governor("utilization(up_hold=nan)").ok);
  EXPECT_FALSE(parse_governor("utilization(down=nan)").ok);
}

// --- governor state machines ----------------------------------------------

GovernorInput input_at(double t_s, double util, int pstate,
                       double slice_s = 0.01) {
  GovernorInput input;
  input.t_s = t_s;
  input.slice_s = slice_s;
  input.utilization = util;
  input.offered_next = util;
  input.pstate = pstate;
  return input;
}

TEST(FixedGovernor, PinsItsStateClamped) {
  const PStateTable table = PStateTable::for_device(a100(), 4);
  GovernorConfig config;
  config.policy = GovernorConfig::Policy::kFixed;
  config.fixed_pstate = 7;  // beyond the table, clamps to deepest
  const auto governor = make_governor(config);
  EXPECT_EQ(governor->decide(input_at(0.0, 1.0, 0), table), 3);
  EXPECT_EQ(governor->decide(input_at(1.0, 0.0, 3), table), 3);
}

TEST(UtilizationGovernor, BoostWaitsForTheHoldTime) {
  const PStateTable table = PStateTable::for_device(a100(), 5);
  GovernorConfig config;
  config.boost_util = 0.80;
  config.boost_hold_s = 0.03;  // three 10 ms slices
  const auto governor = make_governor(config);

  int state = 3;
  // Two slices above threshold: hysteresis holds the state.
  state = governor->decide(input_at(0.00, 0.9, state), table);
  EXPECT_EQ(state, 3);
  state = governor->decide(input_at(0.01, 0.9, state), table);
  EXPECT_EQ(state, 3);
  // Third consecutive slice reaches the hold time: one step toward boost.
  state = governor->decide(input_at(0.02, 0.9, state), table);
  EXPECT_EQ(state, 2);
  // The timer restarts after a step — the next slice does not cascade.
  state = governor->decide(input_at(0.03, 0.9, state), table);
  EXPECT_EQ(state, 2);
}

TEST(UtilizationGovernor, MiddleBandResetsTheTimers) {
  const PStateTable table = PStateTable::for_device(a100(), 5);
  GovernorConfig config;
  config.boost_util = 0.80;
  config.boost_hold_s = 0.02;
  const auto governor = make_governor(config);

  int state = 3;
  state = governor->decide(input_at(0.00, 0.9, state), table);
  EXPECT_EQ(state, 3);
  // One slice in the dead band between the thresholds wipes the pending
  // boost; the climb must start over.
  state = governor->decide(input_at(0.01, 0.5, state), table);
  EXPECT_EQ(state, 3);
  state = governor->decide(input_at(0.02, 0.9, state), table);
  EXPECT_EQ(state, 3);
  state = governor->decide(input_at(0.03, 0.9, state), table);
  EXPECT_EQ(state, 2);
}

TEST(UtilizationGovernor, StepsDownAfterTheLowHold) {
  const PStateTable table = PStateTable::for_device(a100(), 3);
  GovernorConfig config;
  config.low_util = 0.30;
  config.low_hold_s = 0.02;
  const auto governor = make_governor(config);

  int state = 0;
  state = governor->decide(input_at(0.00, 0.1, state), table);
  EXPECT_EQ(state, 0);
  state = governor->decide(input_at(0.01, 0.1, state), table);
  EXPECT_EQ(state, 1);
  state = governor->decide(input_at(0.02, 0.1, state), table);
  EXPECT_EQ(state, 1);
  state = governor->decide(input_at(0.03, 0.1, state), table);
  EXPECT_EQ(state, 2);
  // Deepest state: low utilization cannot push further.
  state = governor->decide(input_at(0.04, 0.1, state), table);
  state = governor->decide(input_at(0.05, 0.1, state), table);
  EXPECT_EQ(state, 2);
}

TEST(UtilizationGovernor, ResetForgetsHeldTime) {
  const PStateTable table = PStateTable::for_device(a100(), 3);
  GovernorConfig config;
  config.boost_util = 0.80;
  config.boost_hold_s = 0.02;
  const auto governor = make_governor(config);

  int state = 2;
  state = governor->decide(input_at(0.00, 0.9, state), table);
  EXPECT_EQ(state, 2);
  governor->reset();
  // Post-reset the hold starts from zero again.
  state = governor->decide(input_at(0.01, 0.9, state), table);
  EXPECT_EQ(state, 2);
  state = governor->decide(input_at(0.02, 0.9, state), table);
  EXPECT_EQ(state, 1);
}

TEST(OracleGovernor, PicksTheDeepestServingState) {
  const PStateTable table = PStateTable::for_device(a100(), 5, 0.40);
  const auto governor = make_governor(
      GovernorConfig{GovernorConfig::Policy::kOracle});

  // Clock fracs are {1.0, 0.85, 0.70, 0.55, 0.40}.
  GovernorInput input = input_at(0.0, 0.0, 0);
  input.offered_next = 0.0;
  EXPECT_EQ(governor->decide(input, table), 4);
  input.offered_next = 0.5;
  EXPECT_EQ(governor->decide(input, table), 3);
  input.offered_next = 0.9;
  EXPECT_EQ(governor->decide(input, table), 0);
  // Backlog forces a higher state than the offered load alone would.
  input.offered_next = 0.3;
  input.backlog_s = 0.005;  // drains within one 10 ms slice at +0.5
  EXPECT_EQ(governor->decide(input, table), 1);
}

}  // namespace
}  // namespace gpupower::gpusim::dvfs
