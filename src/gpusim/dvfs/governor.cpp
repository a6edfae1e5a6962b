#include "gpusim/dvfs/governor.hpp"

#include <cmath>

#include "gpusim/dvfs/dsl_util.hpp"

namespace gpupower::gpusim::dvfs {
namespace {

class FixedGovernor final : public Governor {
 public:
  explicit FixedGovernor(int pstate) : pstate_(pstate) {}

  int decide(const GovernorInput& /*input*/,
             const PStateTable& table) override {
    return table.clamp_index(pstate_);
  }
  void reset() override {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fixed";
  }

 private:
  int pstate_;
};

/// PowerMizer-style threshold governor: one state per decision, guarded by
/// accumulated hold time so a single spiky slice cannot flip the machine.
class UtilizationGovernor final : public Governor {
 public:
  explicit UtilizationGovernor(const GovernorConfig& config)
      : config_(config) {}

  int decide(const GovernorInput& input, const PStateTable& table) override {
    const int state = table.clamp_index(input.pstate);
    if (input.utilization >= config_.boost_util) {
      boost_held_s_ += input.slice_s;
      low_held_s_ = 0.0;
      if (state > 0 && boost_held_s_ >= config_.boost_hold_s) {
        boost_held_s_ = 0.0;
        return state - 1;
      }
    } else if (input.utilization <= config_.low_util) {
      low_held_s_ += input.slice_s;
      boost_held_s_ = 0.0;
      if (state + 1 < static_cast<int>(table.size()) &&
          low_held_s_ >= config_.low_hold_s) {
        low_held_s_ = 0.0;
        return state + 1;
      }
    } else {
      boost_held_s_ = 0.0;
      low_held_s_ = 0.0;
    }
    return state;
  }

  void reset() override {
    boost_held_s_ = 0.0;
    low_held_s_ = 0.0;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "utilization";
  }

 private:
  GovernorConfig config_;
  double boost_held_s_ = 0.0;
  double low_held_s_ = 0.0;
};

/// Clairvoyant reference: the deepest state whose clock still serves the
/// upcoming slice's offered load plus a full backlog drain.
class OracleGovernor final : public Governor {
 public:
  int decide(const GovernorInput& input, const PStateTable& table) override {
    const double drain =
        input.slice_s > 0.0 ? input.backlog_s / input.slice_s : 0.0;
    const double required = input.offered_next + drain;
    const auto serve_rate = [&](int i) {
      const auto idx = static_cast<std::size_t>(i);
      // Effective (post-throttle) rates when the caller provides them —
      // nominal clocks overstate a throttled state's throughput.
      return idx < input.effective_clock.size()
                 ? input.effective_clock[idx]
                 : table[idx].clock_frac;
    };
    for (int i = static_cast<int>(table.size()) - 1; i > 0; --i) {
      if (serve_rate(i) >= required) return i;
    }
    return 0;
  }
  void reset() override {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "oracle";
  }
};

// --- governor DSL ---------------------------------------------------------

using detail::Cursor;
using detail::format_exact;
using detail::read_ident;
using detail::read_number;

GovernorParseResult fail_at(const Cursor& cursor, std::string message) {
  GovernorParseResult result;
  result.error = std::move(message);
  result.error_pos = cursor.pos;
  return result;
}

}  // namespace

std::unique_ptr<Governor> make_governor(const GovernorConfig& config) {
  switch (config.policy) {
    case GovernorConfig::Policy::kFixed:
      return std::make_unique<FixedGovernor>(config.fixed_pstate);
    case GovernorConfig::Policy::kUtilization:
      return std::make_unique<UtilizationGovernor>(config);
    case GovernorConfig::Policy::kOracle:
      return std::make_unique<OracleGovernor>();
  }
  return std::make_unique<UtilizationGovernor>(config);
}

GovernorParseResult parse_governor(std::string_view text) {
  Cursor cursor{text};
  GovernorParseResult result;

  const std::string name = read_ident(cursor);
  if (name.empty()) return fail_at(cursor, "expected a governor name");
  if (!cursor.accept('(')) return fail_at(cursor, "expected '(' after name");

  GovernorConfig config;
  if (name == "fixed") {
    config.policy = GovernorConfig::Policy::kFixed;
    if (!cursor.accept(')')) {
      double value = 0.0;
      if (!read_number(cursor, value)) {
        return fail_at(cursor, "fixed() takes an optional P-state index");
      }
      // Range-check the double before casting — an unrepresentable value
      // makes the cast itself UB.
      if (!(value >= 0.0 && value <= 1e6)) {
        return fail_at(cursor, "P-state index must be in [0, 1e6]");
      }
      config.fixed_pstate = static_cast<int>(value);
      if (!cursor.accept(')')) return fail_at(cursor, "expected ')'");
    }
  } else if (name == "oracle") {
    config.policy = GovernorConfig::Policy::kOracle;
    if (!cursor.accept(')')) return fail_at(cursor, "oracle() takes no args");
  } else if (name == "utilization") {
    config.policy = GovernorConfig::Policy::kUtilization;
    if (!cursor.accept(')')) {
      for (;;) {
        const std::string key = read_ident(cursor);
        if (key.empty()) return fail_at(cursor, "expected key=value");
        if (!cursor.accept('=')) {
          return fail_at(cursor, "expected '=' after '" + key + "'");
        }
        double value = 0.0;
        if (!read_number(cursor, value)) {
          return fail_at(cursor, "expected a number for '" + key + "'");
        }
        if (key == "up") {
          config.boost_util = value;
        } else if (key == "down") {
          config.low_util = value;
        } else if (key == "up_hold") {
          config.boost_hold_s = value;
        } else if (key == "down_hold") {
          config.low_hold_s = value;
        } else {
          return fail_at(cursor, "unknown utilization() key '" + key +
                                     "' (up, down, up_hold, down_hold)");
        }
        if (cursor.accept(')')) break;
        if (!cursor.accept(',')) return fail_at(cursor, "expected ',' or ')'");
      }
      if (std::string problem = validate_governor(config); !problem.empty()) {
        return fail_at(cursor, problem);
      }
    }
  } else {
    return fail_at(cursor,
                   "unknown governor '" + name +
                       "' (expected fixed | utilization | oracle)");
  }

  if (!cursor.at_end()) {
    return fail_at(cursor, "trailing input after governor spec");
  }
  result.ok = true;
  result.config = config;
  return result;
}

std::string validate_governor(const GovernorConfig& config) {
  // Negated comparisons reject NaN, and the bounds reject infinities: the
  // cache key prints every non-finite double as JSON null.
  if (!(config.boost_util >= config.low_util)) {
    return "utilization() needs up >= down";
  }
  if (!(config.boost_util <= 1.0 && config.low_util >= 0.0)) {
    return "utilization thresholds must lie in [0, 1]";
  }
  for (const double hold : {config.boost_hold_s, config.low_hold_s}) {
    if (!(hold >= 0.0 && std::isfinite(hold))) {
      return "hold times must be non-negative and finite";
    }
  }
  return {};
}

std::string to_dsl(const GovernorConfig& config) {
  switch (config.policy) {
    case GovernorConfig::Policy::kFixed:
      return "fixed(" + std::to_string(config.fixed_pstate) + ")";
    case GovernorConfig::Policy::kOracle:
      return "oracle()";
    case GovernorConfig::Policy::kUtilization:
      break;
  }
  return "utilization(up=" + format_exact(config.boost_util) +
         ", down=" + format_exact(config.low_util) +
         ", up_hold=" + format_exact(config.boost_hold_s) +
         ", down_hold=" + format_exact(config.low_hold_s) + ")";
}

}  // namespace gpupower::gpusim::dvfs
