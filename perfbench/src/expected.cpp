#include "expected.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/json.hpp"
#include "core/store/result_store.hpp"

namespace perfbench {

using gpupower::analysis::JsonValue;

std::string result_digest(const gpupower::core::ScenarioResult& result) {
  const std::string dump =
      gpupower::core::scenario_result_to_json(result).dump();
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(gpupower::core::fnv1a64(dump)));
  return buffer;
}

bool ExpectedOutputs::load(const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  const gpupower::analysis::JsonParseResult parsed =
      gpupower::analysis::json_parse(text.str());
  if (!parsed.ok || !parsed.value.is_object()) {
    error = path + ": not a JSON object";
    return false;
  }
  const JsonValue* version = parsed.value.find("perfbench_expected");
  const JsonValue* workloads = parsed.value.find("workloads");
  if (version == nullptr || version->as_number() != 1.0 ||
      workloads == nullptr || !workloads->is_object()) {
    error = path + ": expected {\"perfbench_expected\":1,\"workloads\":{...}}";
    return false;
  }
  workloads_.clear();
  for (const std::string& workload : workloads->keys()) {
    const JsonValue& groups = *workloads->find(workload);
    for (const std::string& group : groups.keys()) {
      const JsonValue& points = *groups.find(group);
      Points& out = workloads_[workload][group];
      for (const std::string& point : points.keys()) {
        const JsonValue& digest = *points.find(point);
        if (!digest.is_string()) {
          error = path + ": " + workload + "." + group + "." + point +
                  " is not a digest string";
          return false;
        }
        out[point] = digest.as_string();
      }
    }
  }
  return true;
}

bool ExpectedOutputs::save(const std::string& path, std::string& error) const {
  JsonValue workloads = JsonValue::object();
  for (const auto& [workload, groups] : workloads_) {
    JsonValue groups_doc = JsonValue::object();
    for (const auto& [group, points] : groups) {
      JsonValue points_doc = JsonValue::object();
      for (const auto& [point, digest] : points) {
        points_doc.set(point, JsonValue::string(digest));
      }
      groups_doc.set(group, std::move(points_doc));
    }
    workloads.set(workload, std::move(groups_doc));
  }
  JsonValue doc = JsonValue::object();
  doc.set("perfbench_expected", JsonValue::integer(1))
      .set("workloads", std::move(workloads));
  return gpupower::core::atomic_write_text(path, doc.dump(true) + "\n",
                                           &error);
}

const ExpectedOutputs::Points* ExpectedOutputs::group(
    std::string_view workload, std::string_view group) const {
  const auto w = workloads_.find(std::string(workload));
  if (w == workloads_.end()) return nullptr;
  const auto g = w->second.find(std::string(group));
  return g == w->second.end() ? nullptr : &g->second;
}

void ExpectedOutputs::set_group(const std::string& workload,
                                const std::string& group, Points points) {
  workloads_[workload][group] = std::move(points);
}

}  // namespace perfbench
