// Workload timelines: the offered-load schedule the DVFS replayer steps a
// governor through.  A timeline is a piecewise-constant utilization
// function — each phase offers a fraction of the device's boost-clock
// capacity for a duration — built three ways:
//
//  - programmatically (constant / burst / ramp / idle factories),
//  - from the timeline DSL (same stage-pipe syntax as the pattern DSL):
//      "burst(period=0.2, duty=30%, high=100%, low=5%, dur=2)"
//      "constant(util=60%, dur=1) | idle(dur=0.5) | ramp(from=0, to=1, steps=8, dur=1)"
//    stages concatenate in time,
//  - from a recorded telemetry::UtilTrace (trace-driven replay): each
//    sample becomes one phase spanning its sampling window.
//
// Offered load is demand, not consumption: a governor parked in a deep
// P-state serves a 0.9-utilization phase slower than it arrives and builds
// backlog, which is exactly the latency cost the replayer charges it.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/trace.hpp"

namespace gpupower::gpusim::dvfs {

struct TimelinePhase {
  double duration_s = 0.0;
  double utilization = 0.0;  ///< offered load in [0, 1] of boost capacity
  /// Input-pattern override for the phase: an index into the owning
  /// config's phase-pattern list (DvfsConfig::phase_patterns), so activity
  /// — not just load — varies over time.  -1 (the default) keeps the
  /// experiment's base pattern, which is bit-identical to the behaviour
  /// before phases carried patterns.
  int pattern = -1;
};

class WorkloadTimeline {
 public:
  WorkloadTimeline() = default;
  explicit WorkloadTimeline(std::vector<TimelinePhase> phases);

  // --- factories ----------------------------------------------------------
  [[nodiscard]] static WorkloadTimeline constant(double utilization,
                                                 double duration_s,
                                                 int pattern = -1);
  [[nodiscard]] static WorkloadTimeline idle(double duration_s);
  /// Square wave: `duty` of each period at `high`, the rest at `low`.
  [[nodiscard]] static WorkloadTimeline burst(double period_s, double duty,
                                              double high, double low,
                                              double duration_s);
  /// `steps` equal-duration plateaus linearly interpolating `from` -> `to`.
  [[nodiscard]] static WorkloadTimeline ramp(double from, double to,
                                             int steps, double duration_s);
  /// Trace-driven replay: sample i spans [t_{i-1}, t_i) (the first sample's
  /// window starts at 0), carrying its recorded utilization.
  [[nodiscard]] static WorkloadTimeline from_trace(
      const telemetry::UtilTrace& trace);

  /// Appends another timeline after this one (the DSL's '|' operator).
  WorkloadTimeline& append(const WorkloadTimeline& other);

  [[nodiscard]] const std::vector<TimelinePhase>& phases() const noexcept {
    return phases_;
  }
  [[nodiscard]] bool empty() const noexcept { return phases_.empty(); }
  [[nodiscard]] double duration_s() const noexcept { return duration_s_; }

  /// Offered load at time t (0 past the end).
  [[nodiscard]] double offered_at(double t_s) const noexcept;

  /// Phase-pattern index at time t (-1 past the end or when the phase
  /// carries no override).
  [[nodiscard]] int pattern_at(double t_s) const noexcept;

  /// Largest phase-pattern index any phase references, -1 when none do —
  /// the replica runner sizes its activity-variant table from this, and a
  /// config validates it against its phase-pattern list.
  [[nodiscard]] int max_pattern_index() const noexcept;

  /// Samples the schedule every `period_s` (window-end timestamps), the
  /// shape from_trace inverts: aligned periods round-trip exactly.
  [[nodiscard]] telemetry::UtilTrace to_util_trace(double period_s) const;

 private:
  /// Appends one phase, merging it into an equal neighbour (see append).
  void push(const TimelinePhase& phase);

  std::vector<TimelinePhase> phases_;
  std::vector<double> ends_;  ///< cumulative phase end times
  double duration_s_ = 0.0;
};

struct TimelineParseResult {
  bool ok = false;
  WorkloadTimeline timeline;
  std::string error;          ///< empty when ok
  std::size_t error_pos = 0;  ///< byte offset of the error in the input
};

/// Parses the timeline DSL described above.  Never throws.
[[nodiscard]] TimelineParseResult parse_timeline(std::string_view text);

/// Canonical phase-list form — a pipe of constant() stages with exact
/// (shortest round-trip) numbers, parseable back and stable.  (Factory
/// structure is not preserved; two DSLs producing the same phases serialise
/// identically.)
[[nodiscard]] std::string to_dsl(const WorkloadTimeline& timeline);

}  // namespace gpupower::gpusim::dvfs
