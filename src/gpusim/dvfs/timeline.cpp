#include "gpusim/dvfs/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>
#include <vector>

#include "gpusim/dvfs/dsl_util.hpp"

namespace gpupower::gpusim::dvfs {
namespace {

using detail::Cursor;
using detail::format_exact;
using detail::read_ident;
using detail::read_number;

constexpr double kEps = 1e-12;

double clamp_util(double u) { return std::clamp(u, 0.0, 1.0); }

}  // namespace

WorkloadTimeline::WorkloadTimeline(std::vector<TimelinePhase> phases) {
  for (const TimelinePhase& phase : phases) {
    if (phase.duration_s <= 0.0) continue;
    push({phase.duration_s, clamp_util(phase.utilization),
          std::max(phase.pattern, -1)});
  }
}

WorkloadTimeline WorkloadTimeline::constant(double utilization,
                                            double duration_s, int pattern) {
  WorkloadTimeline timeline;
  if (duration_s > 0.0) {
    timeline.push({duration_s, clamp_util(utilization), std::max(pattern, -1)});
  }
  return timeline;
}

WorkloadTimeline WorkloadTimeline::idle(double duration_s) {
  return constant(0.0, duration_s);
}

WorkloadTimeline WorkloadTimeline::burst(double period_s, double duty,
                                         double high, double low,
                                         double duration_s) {
  WorkloadTimeline timeline;
  if (period_s <= 0.0 || duration_s <= 0.0) return timeline;
  // Phase-count backstop: a pathological period (user DSL input) must not
  // materialise billions of phases; beyond the cap the wave truncates.
  constexpr double kMaxPeriods = 1e6;
  if (duration_s / period_s > kMaxPeriods) {
    duration_s = period_s * kMaxPeriods;
  }
  duty = std::clamp(duty, 0.0, 1.0);
  double t = 0.0;
  while (t < duration_s - kEps) {
    const double on = std::min(period_s * duty, duration_s - t);
    if (on > 0.0) timeline.push({on, clamp_util(high), -1});
    t += on;
    const double off = std::min(period_s * (1.0 - duty), duration_s - t);
    if (off > 0.0) timeline.push({off, clamp_util(low), -1});
    t += off;
    if (on <= 0.0 && off <= 0.0) break;  // degenerate duty, avoid spinning
  }
  return timeline;
}

WorkloadTimeline WorkloadTimeline::ramp(double from, double to, int steps,
                                        double duration_s) {
  WorkloadTimeline timeline;
  steps = std::max(steps, 1);
  if (duration_s <= 0.0) return timeline;
  const double step_s = duration_s / static_cast<double>(steps);
  for (int i = 0; i < steps; ++i) {
    // Endpoints included for steps >= 2; a single step takes the segment
    // midpoint so both `from` and `to` still shape the result.
    const double frac =
        steps == 1 ? 0.5
                   : static_cast<double>(i) / static_cast<double>(steps - 1);
    timeline.push({step_s, clamp_util(from + (to - from) * frac), -1});
  }
  return timeline;
}

WorkloadTimeline WorkloadTimeline::from_trace(
    const telemetry::UtilTrace& trace) {
  WorkloadTimeline timeline;
  double prev_t = 0.0;
  for (const telemetry::UtilSample& sample : trace.samples()) {
    const double window = sample.t_s - prev_t;
    if (window > 0.0) {
      timeline.push({window, clamp_util(sample.utilization), -1});
    }
    prev_t = std::max(prev_t, sample.t_s);
  }
  return timeline;
}

WorkloadTimeline& WorkloadTimeline::append(const WorkloadTimeline& other) {
  // One allocation per append, still geometric: a long chain of short
  // appends (a many-stage DSL) stays linear.
  const std::size_t needed = phases_.size() + other.phases_.size();
  if (needed > phases_.capacity()) {
    const std::size_t capacity = std::max(needed, 2 * phases_.capacity());
    phases_.reserve(capacity);
    ends_.reserve(capacity);
  }
  for (const TimelinePhase& phase : other.phases_) push(phase);
  return *this;
}

void WorkloadTimeline::push(const TimelinePhase& phase) {
  // Merge equal-utilization neighbours so trace round trips through
  // to_util_trace/from_trace compare structurally equal.  Phases carrying
  // different pattern overrides never merge — they are different inputs
  // even at equal load.
  if (!phases_.empty() && phases_.back().utilization == phase.utilization &&
      phases_.back().pattern == phase.pattern) {
    phases_.back().duration_s += phase.duration_s;
    duration_s_ += phase.duration_s;
    ends_.back() = duration_s_;
    return;
  }
  phases_.push_back(phase);
  duration_s_ += phase.duration_s;
  ends_.push_back(duration_s_);
}

double WorkloadTimeline::offered_at(double t_s) const noexcept {
  if (t_s < 0.0 || phases_.empty() || t_s >= duration_s_) return 0.0;
  const auto it = std::upper_bound(ends_.begin(), ends_.end(), t_s);
  const std::size_t idx = static_cast<std::size_t>(it - ends_.begin());
  return idx < phases_.size() ? phases_[idx].utilization : 0.0;
}

int WorkloadTimeline::pattern_at(double t_s) const noexcept {
  if (t_s < 0.0 || phases_.empty() || t_s >= duration_s_) return -1;
  const auto it = std::upper_bound(ends_.begin(), ends_.end(), t_s);
  const std::size_t idx = static_cast<std::size_t>(it - ends_.begin());
  return idx < phases_.size() ? phases_[idx].pattern : -1;
}

int WorkloadTimeline::max_pattern_index() const noexcept {
  int max_index = -1;
  for (const TimelinePhase& phase : phases_) {
    max_index = std::max(max_index, phase.pattern);
  }
  return max_index;
}

telemetry::UtilTrace WorkloadTimeline::to_util_trace(double period_s) const {
  telemetry::UtilTrace trace;
  if (period_s <= 0.0) return trace;
  for (double t = period_s; t <= duration_s_ + kEps; t += period_s) {
    // Sample the window's midpoint: robust to ends landing exactly on
    // phase boundaries.
    trace.push(std::min(t, duration_s_), offered_at(t - 0.5 * period_s));
  }
  return trace;
}

TimelineParseResult parse_timeline(std::string_view text) {
  Cursor cursor{text};
  TimelineParseResult result;
  const auto fail = [&cursor](std::string message) {
    TimelineParseResult r;
    r.error = std::move(message);
    r.error_pos = cursor.pos;
    return r;
  };

  struct Arg {
    std::string key;
    double value = 0.0;
  };

  bool any_stage = false;
  for (;;) {
    const std::string name = read_ident(cursor);
    if (name.empty()) return fail("expected a timeline stage name");
    if (!cursor.accept('(')) return fail("expected '(' after stage name");

    std::vector<Arg> args;
    if (!cursor.accept(')')) {
      for (;;) {
        Arg arg;
        arg.key = read_ident(cursor);
        if (arg.key.empty()) return fail("expected key=value");
        if (!cursor.accept('=')) {
          return fail("expected '=' after '" + arg.key + "'");
        }
        if (!read_number(cursor, arg.value)) {
          return fail("expected a number for '" + arg.key + "'");
        }
        args.push_back(arg);
        if (cursor.accept(')')) break;
        if (!cursor.accept(',')) return fail("expected ',' or ')'");
      }
    }
    const auto get = [&args](std::string_view key, double fallback) {
      for (const Arg& arg : args) {
        if (arg.key == key) return arg.value;
      }
      return fallback;
    };
    const auto known = [&args](std::initializer_list<std::string_view> keys) {
      for (const Arg& arg : args) {
        if (std::find(keys.begin(), keys.end(), arg.key) == keys.end()) {
          return std::string(arg.key);
        }
      }
      return std::string();
    };

    WorkloadTimeline stage;
    std::string bad;
    if (name == "constant") {
      bad = known({"util", "dur", "pattern"});
      stage = WorkloadTimeline::constant(get("util", 1.0), get("dur", 1.0));
    } else if (name == "idle") {
      bad = known({"dur", "pattern"});
      stage = WorkloadTimeline::idle(get("dur", 1.0));
    } else if (name == "burst") {
      bad = known({"period", "duty", "high", "low", "dur", "pattern"});
      stage = WorkloadTimeline::burst(get("period", 0.2), get("duty", 0.3),
                                      get("high", 1.0), get("low", 0.0),
                                      get("dur", 1.0));
      // burst() truncates at its phase-count backstop; a silently shorter
      // timeline than the spec asked for is a parse error, not a result.
      if (!stage.empty() && stage.duration_s() < get("dur", 1.0) - 1e-9) {
        return fail("burst() period is too small for the duration "
                    "(more than 1e6 periods)");
      }
    } else if (name == "ramp") {
      bad = known({"from", "to", "steps", "dur", "pattern"});
      // Clamp in the double domain first: casting an unrepresentable
      // double to int is UB, and user DSL input reaches here directly.
      const int steps =
          static_cast<int>(std::clamp(get("steps", 8.0), 1.0, 65536.0));
      stage = WorkloadTimeline::ramp(get("from", 0.0), get("to", 1.0), steps,
                                     get("dur", 1.0));
    } else {
      return fail("unknown timeline stage '" + name +
                  "' (constant | idle | burst | ramp)");
    }
    if (!bad.empty()) {
      return fail("unknown " + name + "() key '" + bad + "'");
    }
    if (stage.empty()) {
      return fail(name + "() produced an empty stage (check dur/period)");
    }

    // Every stage accepts pattern=K: an index into the owning config's
    // phase-pattern list, stamped onto each phase the stage realises.
    const double pattern_value = get("pattern", -1.0);
    if (pattern_value != -1.0) {
      if (!(pattern_value >= 0.0 && pattern_value <= 255.0) ||
          pattern_value != std::floor(pattern_value)) {
        return fail("pattern must be an integer index in [0, 255]");
      }
      std::vector<TimelinePhase> stamped = stage.phases();
      for (TimelinePhase& phase : stamped) {
        phase.pattern = static_cast<int>(pattern_value);
      }
      stage = WorkloadTimeline(std::move(stamped));
    }

    if (any_stage) {
      result.timeline.append(stage);
    } else {
      result.timeline = std::move(stage);
    }
    any_stage = true;
    if (cursor.at_end()) break;
    if (!cursor.accept('|')) return fail("expected '|' between stages");
  }

  result.ok = any_stage;
  if (!any_stage) result.error = "empty timeline";
  return result;
}

std::string to_dsl(const WorkloadTimeline& timeline) {
  // The realised phase list, in constant() stages so the output stays
  // parseable by parse_timeline.
  std::string out;
  for (const TimelinePhase& phase : timeline.phases()) {
    if (!out.empty()) out += " | ";
    out += "constant(util=" + format_exact(phase.utilization) +
           ", dur=" + format_exact(phase.duration_s);
    if (phase.pattern >= 0) {
      out += ", pattern=" + std::to_string(phase.pattern);
    }
    out += ")";
  }
  if (out.empty()) out = "idle(dur=0)";
  return out;
}

}  // namespace gpupower::gpusim::dvfs
