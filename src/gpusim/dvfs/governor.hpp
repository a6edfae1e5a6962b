// Governor policies for the P-state machine: who decides which operating
// point the simulated driver locks for the next time slice.
//
//  - fixed(p)       pin one P-state (p=0 is "prefer maximum performance")
//  - utilization()  the PowerMizer-style threshold governor: step one state
//                   toward boost when utilization holds above the boost
//                   threshold for `boost_hold_s`, one state toward low power
//                   when it holds below the low threshold for `low_hold_s`.
//                   Time hysteresis prevents flapping on bursty load.
//  - oracle()       clairvoyant reference: sees the next slice's offered
//                   load and picks the cheapest state that still serves it
//                   (plus drains any backlog) — the lower bound governors
//                   are judged against.
//
// Governors are deterministic state machines: replaying the same timeline
// produces the same decision sequence, which the replay-determinism tests
// pin across engine worker counts.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "gpusim/dvfs/pstate.hpp"

namespace gpupower::gpusim::dvfs {

/// What a governor sees at each slice boundary.  `utilization` is the
/// realized busy fraction of the slice that just ended (what NVML would
/// report); `offered_next` is the upcoming slice's offered load, visible
/// only to the oracle.
struct GovernorInput {
  double t_s = 0.0;
  double slice_s = 0.0;
  double utilization = 0.0;   ///< realized busy fraction of the last slice
  double offered_next = 0.0;  ///< upcoming offered load (oracle only)
  double backlog_s = 0.0;     ///< queued work, in boost-clock seconds
  int pstate = 0;             ///< state the device currently runs in
  /// Per-state *effective* serve rate (post-TDP-throttle), index-aligned
  /// with the table; empty when the caller has no power evaluation.  The
  /// oracle provisions against this — on a throttled workload a state's
  /// nominal clock overstates what it can serve.
  std::span<const double> effective_clock{};
};

class Governor {
 public:
  virtual ~Governor() = default;

  /// Returns the P-state index for the next slice (clamped by the caller).
  [[nodiscard]] virtual int decide(const GovernorInput& input,
                                   const PStateTable& table) = 0;
  /// Forgets hysteresis timers; replays restart from a clean machine.
  virtual void reset() = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

struct GovernorConfig {
  enum class Policy { kFixed, kUtilization, kOracle };
  Policy policy = Policy::kUtilization;
  int fixed_pstate = 0;        ///< fixed: which state to pin
  double boost_util = 0.80;    ///< utilization: boost when util >= this...
  double boost_hold_s = 0.01;  ///< ...continuously for this long
  double low_util = 0.30;      ///< and step down when util <= this...
  double low_hold_s = 0.03;    ///< ...continuously for this long

  [[nodiscard]] bool operator==(const GovernorConfig&) const noexcept =
      default;
};

/// Instantiates the policy a config describes.
[[nodiscard]] std::unique_ptr<Governor> make_governor(
    const GovernorConfig& config);

struct GovernorParseResult {
  bool ok = false;
  GovernorConfig config;
  std::string error;          ///< empty when ok
  std::size_t error_pos = 0;  ///< byte offset of the error in the input
};

/// Parses the governor DSL (mirrors the pattern-DSL stage syntax):
///   fixed(2)
///   utilization(up=80%, down=30%, up_hold=0.02, down_hold=0.1)
///   oracle()
/// Omitted keys keep the GovernorConfig defaults.  Never throws.
[[nodiscard]] GovernorParseResult parse_governor(std::string_view text);

/// The one range check of a governor config, shared by parse_governor and
/// the dvfs/fleet config validators (so a spec's object form and a
/// hand-built config meet it too): thresholds in [0, 1] with up >= down,
/// finite non-negative holds.  Every field is checked whatever the policy,
/// since the cache key carries them all.  Empty when valid.
[[nodiscard]] std::string validate_governor(const GovernorConfig& config);

/// Canonical DSL form, numbers printed exactly:
/// parse_governor(to_dsl(c)).config == c for every config the parser
/// accepts.
[[nodiscard]] std::string to_dsl(const GovernorConfig& config);

}  // namespace gpupower::gpusim::dvfs
