#include "workloads.hpp"

#include <cstdio>

namespace perfbench {
namespace {

std::string experiment_json(std::string_view gpu, std::string_view dtype,
                            int n, int seeds, std::uint64_t base_seed,
                            std::uint64_t sampling_seed) {
  return std::string("{\"gpu\":\"") + std::string(gpu) + "\",\"dtype\":\"" +
         std::string(dtype) + "\",\"n\":" + std::to_string(n) +
         ",\"seeds\":" + std::to_string(seeds) +
         ",\"base_seed\":" + std::to_string(base_seed) +
         ",\"sampling\":{\"tiles\":12,\"k_fraction\":0.5,\"seed\":" +
         std::to_string(sampling_seed) + "}}";
}

std::string format_watts(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string_view workload_name(Workload workload) noexcept {
  switch (workload) {
    case Workload::kFigureSweep:
      return "figure_sweep";
    case Workload::kFleetGrid:
      return "fleet_grid";
    case Workload::kServeWarm:
      return "serve_warm";
  }
  return "figure_sweep";
}

bool parse_workload(std::string_view text, Workload& out) {
  for (const Workload workload : kAllWorkloads) {
    if (workload_name(workload) == text) {
      out = workload;
      return true;
    }
  }
  return false;
}

int seed_class(std::uint64_t seed) noexcept {
  return static_cast<int>(seed % static_cast<std::uint64_t>(kSeedClasses));
}

std::vector<WorkloadRequest> figure_sweep_requests(int cls) {
  const auto base_seed = static_cast<std::uint64_t>(1000 + cls);
  const auto sampling_seed = static_cast<std::uint64_t>(24301 + cls);
  std::vector<WorkloadRequest> requests;
  for (const char* figure : {"fig3a", "fig4a", "fig5a", "fig6a"}) {
    std::string text =
        std::string("{\"scenario\":\"campaign\",\"name\":\"figure_sweep_") +
        figure + "\",\"base\":{\"scenario\":\"static\",\"experiment\":" +
        experiment_json("a100", "fp16", 1024, 1, base_seed, sampling_seed) +
        "},\"axes\":[{\"field\":\"experiment.dtype\",\"values\":[\"fp32\","
        "\"fp16\",\"fp16t\",\"int8\"]},{\"field\":\"experiment.pattern\","
        "\"figure\":\"" +
        figure + "\"}]}";
    requests.push_back({figure, std::move(text)});
  }
  return requests;
}

std::vector<WorkloadRequest> fleet_grid_requests(int cls) {
  const auto base_seed = static_cast<std::uint64_t>(2000 + cls);
  const auto sampling_seed = static_cast<std::uint64_t>(34301 + cls);
  // Cap levels as fractions of the 4-device uncapped peak of the
  // committed fleet_capping protocol (423.1 W).
  constexpr double kUncappedPeakW = 423.10077827224944;
  struct CapLevel {
    double fraction;
    const char* label;
  };
  std::string caps;
  for (const CapLevel level : {CapLevel{0.50, "0.50"}, CapLevel{0.65, "0.65"},
                               CapLevel{0.80, "0.80"}, CapLevel{0.95, "0.95"},
                               CapLevel{1.10, "1.10"}}) {
    if (!caps.empty()) caps += ",";
    caps += "{\"value\":" + format_watts(level.fraction * kUncappedPeakW) +
            ",\"label\":\"" + level.label + "\"}";
  }
  std::string text =
      "{\"scenario\":\"campaign\",\"name\":\"fleet_grid\",\"base\":{"
      "\"scenario\":\"fleet\",\"experiment\":" +
      experiment_json("a100", "fp16t", 1024, 4, base_seed, sampling_seed) +
      ",\"staggered\":{\"timeline\":\"burst(period=0.4, duty=35%, high=100%, "
      "low=15%, dur=2)\",\"count\":4,\"stagger_s\":0.1,\"gpu\":\"a100\","
      "\"governor\":\"utilization(up=70%, down=30%)\"},"
      "\"allocator\":\"proportional\",\"cap_w\":null,"
      "\"thermal\":{\"enabled\":true},\"slice_s\":0.01,\"pstates\":5},"
      "\"axes\":[{\"field\":\"allocator\",\"values\":[\"uniform\","
      "\"proportional\",\"priority\",\"greedy\"]},{\"field\":\"cap_w\","
      "\"values\":[" +
      caps + "]}]}";
  return {{"fleet_grid", std::move(text)}};
}

std::vector<WorkloadRequest> serve_corpus_requests() {
  std::vector<WorkloadRequest> requests;
  for (const char* gpu : {"a100", "h100", "v100", "rtx6000"}) {
    for (const char* dtype : {"fp32", "fp16", "fp16t", "int8"}) {
      for (const char* figure : {"fig3a", "fig3c", "fig4a", "fig4c", "fig5a",
                                 "fig5d", "fig6a", "fig6d"}) {
        std::string id = std::string(gpu) + "/" + dtype + "/" + figure;
        std::string text = "{\"scenario\":\"campaign\",\"name\":\"serve_";
        text += gpu;
        text += "_";
        text += dtype;
        text += "_";
        text += figure;
        text += "\",\"base\":{\"scenario\":\"static\",\"experiment\":";
        text += experiment_json(gpu, dtype, 256, 1, 42, 24301);
        text += "},\"axes\":[{\"field\":\"experiment.pattern\",\"figure\":\"";
        text += figure;
        text += "\"}]}";
        requests.push_back({std::move(id), std::move(text)});
      }
    }
  }
  return requests;
}

}  // namespace perfbench
