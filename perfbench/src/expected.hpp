// The expected-outputs file (perfbench/expected_outputs.json): for every
// workload and input group (a seed class, or serve_warm's fixed corpus)
// the digest of each point's exact scenario_result_to_json dump.  Every
// run compares against it, so "no simulated statistic changed" is checked
// before any timing is believed; `--regen-expected` rewrites it.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "core/scenario.hpp"

namespace perfbench {

/// FNV-1a 64 of the result's full-fidelity store dump, as 16 hex digits.
[[nodiscard]] std::string result_digest(
    const gpupower::core::ScenarioResult& result);

class ExpectedOutputs {
 public:
  using Points = std::map<std::string, std::string>;  // point id -> digest

  /// Reads the file; false with `error` when it is missing or malformed.
  bool load(const std::string& path, std::string& error);
  /// Writes the file atomically (core::atomic_write_text).
  bool save(const std::string& path, std::string& error) const;

  /// Digests of one workload's input group, or nullptr when absent.
  [[nodiscard]] const Points* group(std::string_view workload,
                                    std::string_view group) const;
  /// Replaces one group wholesale.
  void set_group(const std::string& workload, const std::string& group,
                 Points points);

  [[nodiscard]] bool operator==(const ExpectedOutputs&) const = default;

 private:
  std::map<std::string, std::map<std::string, Points>> workloads_;
};

}  // namespace perfbench
