// Fleet power-capping sweep (new-scenario figure): a 4-GPU fleet serving
// phase-shifted bursty GEMM timelines, replayed under a grid of shared
// power caps x allocation policies, with the RC thermal model threaded
// across slices.  The figure the single-device pipeline cannot produce:
// energy / backlog / temperature trade-offs of datacenter power capping —
// how much does a smarter allocator buy at a given site envelope?
//
// The cap axis is expressed in *dynamic headroom*: cap = idle_floor +
// frac x (uncapped_peak - idle_floor), with both anchors measured first on
// the environment's shape (the floor from an idle fixed-deepest fleet, the
// peak from the uncapped replay).  A fraction of raw peak would land below
// the fleet's idle floor at small GPUPOWER_N — four ~50 W idle floors are
// most of a small-problem fleet's draw — degenerating every allocator to
// "everyone clamps to the deepest state".
//
// The (allocator x cap) grid is a campaign spec (core/spec.hpp): the bench
// assembles the campaign document — fleet base scenario, allocator axis,
// cap_w axis carrying the measured watt values — expands it, and fans every
// cell through the ExperimentEngine as one deduplicated batch.
// `--emit-spec FILE` writes the document; the committed
// examples/specs/fleet_capping.json is exactly this output at the default
// protocol shape, so `gpowerctl run examples/specs/fleet_capping.json
// --bench-out fresh.json` reproduces the committed BENCH_fleet.json.
//
// Emits BENCH_fleet.json (tools/bench_export): deterministic model outputs
// (energy_j per cell), committed as a trajectory file and gated by
// `bench_export --compare` in CI — a model change must regenerate the
// committed document (and the committed spec's cap anchors with it).
//
// Environment knobs as every figure bench: GPUPOWER_N, GPUPOWER_SEEDS,
// GPUPOWER_TILES, GPUPOWER_KFRAC, GPUPOWER_WORKERS, GPUPOWER_CSV.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "core/config_builder.hpp"
#include "core/engine.hpp"
#include "core/env.hpp"
#include "core/fleet_experiment.hpp"
#include "core/spec.hpp"
#include "core/store/result_store.hpp"
#include "fig_harness.hpp"
#include "tools/bench_export.hpp"

namespace {

using namespace gpupower;
using analysis::JsonValue;
namespace fleet = gpusim::fleet;

constexpr int kDevices = 4;
constexpr double kStaggerS = 0.1;
const char* kTimeline =
    "burst(period=0.4, duty=35%, high=100%, low=15%, dur=2)";

core::FleetConfigBuilder base_fleet(const core::ExperimentConfig& experiment) {
  core::FleetConfigBuilder builder;
  builder.experiment(experiment).slice(0.01).pstates(5);
  // Staggered bursts: devices peak at different times, which is the
  // regime where demand-aware allocation beats a uniform split.
  builder.add_staggered_devices(
      gpusim::dvfs::parse_timeline(kTimeline).timeline, kDevices, kStaggerS,
      gpusim::GpuModel::kA100PCIe,
      "utilization(up=70%, down=30%, up_hold=0.01, down_hold=0.02)");
  fleet::ThermalConfig thermal;
  thermal.enabled = true;
  builder.thermal(thermal);
  return builder;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fleet.json";
  std::string emit_spec_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--emit-spec") == 0 && i + 1 < argc) {
      emit_spec_path = argv[++i];
    }
  }

  const core::BenchEnv env = core::read_bench_env();
  bench::print_preamble(
      env, "Fleet power capping — 4 staggered-burst GPUs, shared cap");

  const core::ExperimentConfig experiment =
      core::ExperimentConfigBuilder().dtype("fp16t").env(env).build();
  core::ExperimentEngine engine = bench::make_engine(env);

  // Phase 1: the uncapped fleet and the idle fixed-deepest fleet fix the
  // sweep's power scale (peak and floor).
  const auto uncapped_builder = base_fleet(experiment);
  if (!uncapped_builder.valid()) {
    std::fprintf(stderr, "fig_fleet_capping: %s\n",
                 uncapped_builder.error().c_str());
    return 2;
  }
  const core::FleetConfig uncapped_config = uncapped_builder.build();
  const core::ScenarioHandle uncapped_handle = engine.submit(uncapped_config);

  core::FleetConfigBuilder floor_builder;
  floor_builder.experiment(experiment).slice(0.01).pstates(5);
  floor_builder.add_timeline("idle(dur=0.05)");
  for (int i = 0; i < kDevices; ++i) {
    floor_builder.add_device(gpusim::GpuModel::kA100PCIe, "fixed(4)");
  }
  const double floor_w =
      engine.submit(floor_builder.build()).get().fleet().avg_power_w;

  const core::FleetResult& uncapped = uncapped_handle.get().fleet();
  std::printf(
      "uncapped fleet: %.1f W peak, %.2f J, completion %.3f s; idle floor "
      "%.1f W\n\n",
      uncapped.peak_power_w, uncapped.energy_j, uncapped.completion_s,
      floor_w);

  // Phase 2: the (allocator x cap-fraction) grid as a campaign document —
  // the same shape a user writes by hand for `gpowerctl run`, with the
  // measured cap anchors baked into the cap_w axis values.
  char protocol[200];
  std::snprintf(protocol, sizeof protocol,
                "N=%zu seeds=%d sampled(tiles=%zu, kfrac=%.2f), %d x A100 "
                "staggered burst, slice 10 ms, thermal on, cap x uncapped "
                "peak",
                env.n, env.seeds, env.tiles, env.k_fraction, kDevices);

  const char* kAllocators[] = {"uniform", "proportional", "priority",
                               "greedy"};
  const double kCapFractions[] = {0.5, 0.65, 0.8};

  JsonValue allocator_values = JsonValue::array();
  for (const char* allocator : kAllocators) {
    allocator_values.push(JsonValue::string(allocator));
  }
  JsonValue cap_values = JsonValue::array();
  for (const double frac : kCapFractions) {
    char label[16];
    std::snprintf(label, sizeof label, "%.2f", frac);
    JsonValue entry = JsonValue::object();
    entry
        .set("value", JsonValue::number(
                          floor_w + frac * (uncapped.peak_power_w - floor_w)))
        .set("label", JsonValue::string(label));
    cap_values.push(std::move(entry));
  }
  JsonValue allocator_axis = JsonValue::object();
  allocator_axis.set("field", JsonValue::string("allocator"))
      .set("values", std::move(allocator_values));
  JsonValue cap_axis = JsonValue::object();
  cap_axis.set("field", JsonValue::string("cap_w"))
      .set("values", std::move(cap_values));
  JsonValue axes = JsonValue::array();
  axes.push(std::move(allocator_axis));
  axes.push(std::move(cap_axis));
  JsonValue doc = JsonValue::object();
  doc.set("scenario", JsonValue::string("campaign"))
      .set("name", JsonValue::string("fleet_capping"))
      .set("protocol", JsonValue::string(protocol))
      .set("base", core::spec_to_json(core::ScenarioConfig(uncapped_config)))
      .set("axes", std::move(axes));

  if (!emit_spec_path.empty()) {
    if (!core::atomic_write_text(emit_spec_path,
                                 doc.dump(/*pretty=*/true) + "\n")) {
      std::fprintf(stderr, "fig_fleet_capping: cannot write %s\n",
                   emit_spec_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", emit_spec_path.c_str());
  }

  const core::SpecParseResult spec = core::parse_scenario_spec(doc);
  if (!spec.ok) {
    std::fprintf(stderr, "fig_fleet_capping: %s\n", spec.error.c_str());
    return 2;
  }
  core::CampaignRun run;
  std::string error;
  if (!core::submit_campaign(engine, spec.spec, run, error)) {
    std::fprintf(stderr, "fig_fleet_capping: %s\n", error.c_str());
    return 2;
  }
  auto& points = run.points;
  auto& handles = run.handles;
  engine.wait_all();

  analysis::Table table({"allocator@cap", "energy (J)", "vs uncapped (%)",
                         "completion (s)", "mean backlog (ms)",
                         "max backlog (ms)", "peak T (C)", "over-cap"});
  std::vector<tools::BenchCase> cases;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::FleetResult& r = handles[i].get().fleet();
    double peak_temp_c = 0.0;
    for (const core::FleetDeviceSummary& device : r.devices) {
      peak_temp_c = std::max(peak_temp_c, device.peak_temperature_c);
    }
    table.add_row(points[i].label,
                  {r.energy_j,
                   uncapped.energy_j > 0.0
                       ? (r.energy_j / uncapped.energy_j - 1.0) * 100.0
                       : 0.0,
                   r.completion_s, r.mean_backlog_s * 1e3,
                   r.backlog_max_s * 1e3, peak_temp_c, r.over_cap_slices},
                  2);
    tools::BenchCase bench_case;
    bench_case.name = points[i].label;
    bench_case.metrics = {{"energy_j", r.energy_j},
                          {"completion_s", r.completion_s},
                          {"backlog_mean_s", r.mean_backlog_s},
                          {"backlog_max_s", r.backlog_max_s}};
    cases.push_back(std::move(bench_case));
  }
  table.print(std::cout);
  if (env.csv) {
    std::printf("\nCSV:\n");
    table.print_csv(std::cout);
  }

  // The acceptance comparison: at each cap level, does the proportional
  // allocator dominate the uniform split on energy at equal-or-better
  // backlog?
  for (std::size_t c = 0; c < std::size(kCapFractions); ++c) {
    const core::FleetResult* uniform = nullptr;
    const core::FleetResult* proportional = nullptr;
    for (std::size_t i = 0; i < points.size(); ++i) {
      // Row-major grid: allocator axis first, cap axis second.
      if (i % std::size(kCapFractions) != c) continue;
      const std::string& allocator = points[i].coords[0].second;
      if (allocator == "uniform") uniform = &handles[i].get().fleet();
      if (allocator == "proportional") {
        proportional = &handles[i].get().fleet();
      }
    }
    if (uniform == nullptr || proportional == nullptr) continue;
    const bool dominates =
        proportional->energy_j <= uniform->energy_j &&
        proportional->backlog_max_s <= uniform->backlog_max_s &&
        (proportional->energy_j < uniform->energy_j ||
         proportional->backlog_max_s < uniform->backlog_max_s);
    std::printf(
        "cap %.2f: proportional %s uniform (energy %+.2f J, max backlog "
        "%+.1f ms)\n",
        kCapFractions[c], dominates ? "dominates" : "does not dominate",
        proportional->energy_j - uniform->energy_j,
        (proportional->backlog_max_s - uniform->backlog_max_s) * 1e3);
  }
  bench::print_engine_stats(engine);

  // Non-gated observability context: --compare walks only the committed
  // baseline's cases, so the extra top-level block never gates and the
  // committed BENCH_fleet.json needs no regeneration to stay comparable.
  const JsonValue engine_stats =
      core::engine_stats_json(engine.stats(), engine.workers());
  const auto bench_doc = tools::bench_document("fleet_capping", protocol,
                                               cases, &engine_stats);
  if (!tools::write_bench_json(out_path, bench_doc)) {
    std::fprintf(stderr, "fig_fleet_capping: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
