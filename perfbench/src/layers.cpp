#include "layers.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>

#include "core/dvfs_experiment.hpp"
#include "core/spec.hpp"
#include "core/store/result_store.hpp"
#include "gemm/matrix.hpp"
#include "gpusim/dvfs/governor.hpp"
#include "gpusim/dvfs/pstate.hpp"
#include "gpusim/dvfs/replay.hpp"
#include "gpusim/fleet/fleet.hpp"
#include "numeric/bits.hpp"
#include "patterns/bitops.hpp"
#include "patterns/distributions.hpp"
#include "patterns/placement.hpp"
#include "patterns/rng.hpp"
#include "patterns/sparsity.hpp"
#include "telemetry/sampler.hpp"

namespace perfbench {
namespace {

namespace core = gpupower::core;
namespace gpusim = gpupower::gpusim;
namespace patterns = gpupower::patterns;
namespace numeric = gpupower::numeric;
using core::obs::now_ns;
using core::PatternSpec;

/// A timed stage: a benchmark-owned span plus the elapsed time added to a
/// running total.
class Stage {
 public:
  Stage(const char* span_name, std::int64_t& total_ns)
      : span_(span_name), total_ns_(total_ns), start_ns_(now_ns()) {}
  ~Stage() { total_ns_ += now_ns() - start_ns_; }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  core::obs::Span span_;
  std::int64_t& total_ns_;
  std::int64_t start_ns_;
};

struct ReplicaTotals {
  std::int64_t build_ns = 0;
  std::int64_t generate_ns = 0;
  std::int64_t place_ns = 0;
  std::int64_t sparsify_ns = 0;
  std::int64_t materialize_ns = 0;
  std::int64_t bitop_ns = 0;
  std::int64_t features_ns = 0;
  std::int64_t activity_ns = 0;
  std::int64_t power_ns = 0;
  std::int64_t telemetry_ns = 0;
  std::int64_t variants_ns = 0;
  std::int64_t replay_ns = 0;
  double staged_bytes = 0.0;
  double tiles = 0.0;
  double trace_samples = 0.0;
  double slices = 0.0;
  int replicas = 0;
  int fleet_replicas = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// build_inputs, spelled out through the public stage functions in its own
// order; replay_one checks the result against build_inputs itself.  Stream
// tags follow core/pattern_spec.cpp.
std::vector<float> generate(const PatternSpec& spec, double mean,
                            double sigma, std::size_t count,
                            std::uint64_t seed) {
  switch (spec.value) {
    case PatternSpec::Value::kGaussian:
      break;
    case PatternSpec::Value::kValueSet:
      return patterns::value_set_fill(count, spec.set_size, mean, sigma, seed);
    case PatternSpec::Value::kConstant:
      return patterns::constant_random_fill(count, mean, sigma, seed);
  }
  return patterns::gaussian_fill(count, mean, sigma, seed);
}

void place(const PatternSpec& spec, std::vector<float>& data, std::size_t n) {
  switch (spec.place) {
    case PatternSpec::Place::kNone:
      break;
    case PatternSpec::Place::kSortRows:
      patterns::partial_sort_rows(data, n, n, spec.sort_percent);
      break;
    case PatternSpec::Place::kSortColumns:
      patterns::partial_sort_columns(data, n, n, spec.sort_percent);
      break;
    case PatternSpec::Place::kSortWithinRows:
      patterns::partial_sort_within_rows(data, n, n, spec.sort_percent);
      break;
    case PatternSpec::Place::kFullSort:
      patterns::full_sort(data);
      break;
  }
}

template <typename T>
void bitop(const PatternSpec& spec, gpupower::gemm::Matrix<T>& m,
           std::uint64_t seed) {
  const int bits = static_cast<int>(std::llround(
      spec.bit_fraction *
      static_cast<double>(numeric::scalar_traits<T>::kBits)));
  switch (spec.bitop) {
    case PatternSpec::BitOp::kNone:
      break;
    case PatternSpec::BitOp::kFlipRandom:
      patterns::flip_random_bits(m.span(), bits, seed);
      break;
    case PatternSpec::BitOp::kRandomizeLow:
      patterns::randomize_low_bits(m.span(), bits, seed);
      break;
    case PatternSpec::BitOp::kRandomizeHigh:
      patterns::randomize_high_bits(m.span(), bits, seed);
      break;
    case PatternSpec::BitOp::kZeroLow:
      patterns::zero_low_bits(m.span(), bits);
      break;
    case PatternSpec::BitOp::kZeroHigh:
      patterns::zero_high_bits(m.span(), bits);
      break;
  }
}

template <typename T>
core::ExperimentInputs<T> staged_inputs(const PatternSpec& spec,
                                        numeric::DType dtype, std::size_t n,
                                        std::uint64_t seed,
                                        ReplicaTotals& totals) {
  const double range_scale =
      dtype == numeric::DType::kINT8 ? 25.0 / 210.0 : 1.0;
  const double sigma = spec.sigma < 0.0 ? numeric::default_sigma(dtype)
                                        : spec.sigma * range_scale;
  const double mean = spec.mean * range_scale;
  const std::size_t count = n * n;
  std::vector<float> a_vals;
  std::vector<float> b_vals;
  core::ExperimentInputs<T> inputs;
  {
    const Stage stage("perfbench.inputs.generate", totals.generate_ns);
    a_vals = generate(spec, mean, sigma, count, patterns::derive_seed(seed, 0));
    b_vals = generate(spec, mean, sigma, count, patterns::derive_seed(seed, 1));
  }
  {
    const Stage stage("perfbench.inputs.place", totals.place_ns);
    place(spec, a_vals, n);
    place(spec, b_vals, n);
  }
  {
    const Stage stage("perfbench.inputs.sparsify", totals.sparsify_ns);
    if (spec.sparsity > 0.0) {
      patterns::sparsify(a_vals, spec.sparsity, patterns::derive_seed(seed, 2));
      patterns::sparsify(b_vals, spec.sparsity, patterns::derive_seed(seed, 3));
    }
  }
  {
    const Stage stage("perfbench.inputs.materialize", totals.materialize_ns);
    inputs.a = gpupower::gemm::materialize<T>(a_vals, n, n);
    inputs.b = gpupower::gemm::materialize<T>(b_vals, n, n);
  }
  {
    const Stage stage("perfbench.inputs.bitop", totals.bitop_ns);
    bitop(spec, inputs.a, patterns::derive_seed(seed, 4));
    bitop(spec, inputs.b, patterns::derive_seed(seed, 5));
  }
  {
    const Stage stage("perfbench.inputs.features", totals.features_ns);
    const auto a_bits = gpupower::gemm::raw_bits(inputs.a);
    const auto b_bits = gpupower::gemm::raw_bits(inputs.b);
    const int width = numeric::bit_width(dtype);
    inputs.alignment = numeric::average_alignment(a_bits, b_bits, width);
    inputs.weight_fraction = numeric::average_weight_fraction(a_bits, width);
  }
  // Bytes the layer computes per replica: the two FP32 staging buffers,
  // the two typed matrices, and the two raw-bit copies the features scan.
  const double elements = 2.0 * static_cast<double>(count);
  totals.staged_bytes +=
      elements * (2.0 * sizeof(float) + static_cast<double>(sizeof(T)));
  return inputs;
}

/// One static replica composed layer by layer; returns its activity
/// totals for the fleet parity check.
template <typename T>
gpusim::ActivityTotals replay_one(const LayerSample& sample,
                                  ReplicaTotals& totals,
                                  std::vector<std::string>& failures) {
  const core::ExperimentConfig& config = sample.experiment;
  const gpusim::GpuSimulator sim(
      config.gpu, core::replica_sim_options(config, sample.seed_index));
  const gpupower::gemm::GemmProblem problem{
      config.n, config.n, config.n, 1.0f, 0.0f, config.pattern.transpose_b};
  const std::uint64_t replica_seed = patterns::derive_seed(
      config.base_seed, static_cast<std::uint64_t>(sample.seed_index));

  core::ExperimentInputs<T> reference;
  {
    const Stage stage("perfbench.inputs.build", totals.build_ns);
    reference = core::build_inputs<T>(config.pattern, config.dtype, config.n,
                                      replica_seed);
  }
  const core::ExperimentInputs<T> inputs = staged_inputs<T>(
      config.pattern, config.dtype, config.n, replica_seed, totals);
  // Compared as raw bits: bit-flip patterns produce NaNs, which never
  // compare equal as values.
  if (!(gpupower::gemm::raw_bits(inputs.a) ==
            gpupower::gemm::raw_bits(reference.a) &&
        gpupower::gemm::raw_bits(inputs.b) ==
            gpupower::gemm::raw_bits(reference.b) &&
        same_bits(inputs.alignment, reference.alignment) &&
        same_bits(inputs.weight_fraction, reference.weight_fraction))) {
    failures.push_back(sample.id +
                       ": stage-by-stage inputs differ from build_inputs");
  }

  gpusim::ActivityEstimate estimate;
  {
    const Stage stage("perfbench.activity.estimate", totals.activity_ns);
    estimate = sim.activity(problem, config.dtype, inputs.a, inputs.b);
  }
  gpusim::PowerReport report;
  {
    const Stage stage("perfbench.power.evaluate", totals.power_ns);
    report = gpusim::PowerCalculator(sim.descriptor())
                 .evaluate(problem, config.dtype, estimate.totals);
  }
  gpupower::telemetry::SamplerConfig sampler = config.sampler;
  sampler.seed = patterns::derive_seed(replica_seed, 0xD0C6);
  core::SeedReplicaResult composed;
  {
    const Stage stage("perfbench.telemetry.sample", totals.telemetry_ns);
    const gpupower::telemetry::PowerTrace trace = gpupower::telemetry::sample_run(
        report, config.effective_iterations(), sampler);
    composed.power_w = gpupower::telemetry::reported_power_w(trace, sampler);
    totals.trace_samples += static_cast<double>(trace.size());
  }
  composed.alignment = inputs.alignment;
  composed.weight_fraction = inputs.weight_fraction;
  composed.rails = report.rails;
  composed.iteration_s = report.realized_iteration_s;
  composed.energy_per_iter_j = report.energy_j;
  composed.throttled = report.throttled;
  composed.clock_frac = report.effective_clock_frac;
  totals.tiles += static_cast<double>(estimate.tiles_walked);
  ++totals.replicas;

  const core::SeedReplicaResult expected =
      core::run_seed_replica(config, sample.seed_index);
  const bool equal =
      same_bits(composed.power_w, expected.power_w) &&
      same_bits(composed.alignment, expected.alignment) &&
      same_bits(composed.weight_fraction, expected.weight_fraction) &&
      same_bits(composed.rails.fetch_w, expected.rails.fetch_w) &&
      same_bits(composed.rails.operand_w, expected.rails.operand_w) &&
      same_bits(composed.rails.multiply_w, expected.rails.multiply_w) &&
      same_bits(composed.rails.accum_w, expected.rails.accum_w) &&
      same_bits(composed.rails.issue_w, expected.rails.issue_w) &&
      same_bits(composed.iteration_s, expected.iteration_s) &&
      same_bits(composed.energy_per_iter_j, expected.energy_per_iter_j) &&
      composed.throttled == expected.throttled &&
      same_bits(composed.clock_frac, expected.clock_frac);
  if (!equal) {
    failures.push_back(sample.id +
                       ": layer-by-layer replica differs from run_seed_replica");
  }
  return estimate.totals;
}

/// The timeline replica_activity_variants is validated against inside
/// run_fleet_seed_replica: the one referencing the highest phase pattern.
const gpusim::dvfs::WorkloadTimeline& widest_timeline(
    const core::FleetConfig& config) {
  const gpusim::dvfs::WorkloadTimeline* widest = &config.timelines.front();
  for (const gpusim::dvfs::WorkloadTimeline& timeline : config.timelines) {
    if (timeline.max_pattern_index() > widest->max_pattern_index()) {
      widest = &timeline;
    }
  }
  return *widest;
}

/// The fleet replay as run_fleet_seed_replica assembles it, fed with the
/// given activity variants.
gpusim::fleet::FleetRun replay_fleet_from(
    const core::FleetConfig& config, int seed_index,
    std::span<const gpusim::ActivityTotals> variants,
    const gpupower::gemm::GemmProblem& problem) {
  namespace dvfs = gpusim::dvfs;
  std::vector<dvfs::TimelineReplayer> replayers;
  std::vector<std::unique_ptr<dvfs::Governor>> governors;
  replayers.reserve(config.devices.size());
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    gpusim::SimOptions options =
        core::replica_sim_options(config.experiment, seed_index);
    if (options.variation && i > 0) {
      options.variation->instance = patterns::derive_seed(
          patterns::derive_seed(options.variation->instance, 0xF1EE7u),
          static_cast<std::uint64_t>(i));
    }
    const gpusim::GpuSimulator sim(config.devices[i].gpu, options);
    const dvfs::PStateTable table =
        config.pstates <= 1
            ? dvfs::PStateTable::boost_only(sim.descriptor())
            : dvfs::PStateTable::for_device(sim.descriptor(), config.pstates);
    replayers.emplace_back(sim.descriptor(), problem,
                           config.experiment.dtype, variants, table);
    governors.push_back(dvfs::make_governor(config.devices[i].governor));
  }
  std::vector<gpusim::fleet::FleetSimulator::Device> devices;
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    gpusim::fleet::FleetSimulator::Device device;
    device.replayer = &replayers[i];
    device.timeline = &config.timelines[static_cast<std::size_t>(
        config.devices[i].timeline)];
    device.governor = governors[i].get();
    device.priority = config.devices[i].priority;
    devices.push_back(device);
  }
  return gpusim::fleet::FleetSimulator(config.allocator, config.thermal)
      .run(devices, config.slice_s);
}

bool same_run(const gpusim::fleet::FleetRun& a,
              const gpusim::fleet::FleetRun& b) {
  return same_bits(a.energy_j, b.energy_j) &&
         same_bits(a.avg_power_w, b.avg_power_w) &&
         same_bits(a.peak_power_w, b.peak_power_w) &&
         same_bits(a.completion_s, b.completion_s) &&
         same_bits(a.duration_s, b.duration_s) &&
         same_bits(a.backlog_max_s, b.backlog_max_s) &&
         same_bits(a.mean_backlog_s, b.mean_backlog_s) &&
         a.transitions == b.transitions &&
         a.over_cap_slices == b.over_cap_slices &&
         a.truncated == b.truncated && a.fleet_power_w == b.fleet_power_w &&
         a.devices.size() == b.devices.size();
}

void replay_fleet(const LayerSample& sample,
                  const gpusim::ActivityTotals& composed,
                  ReplicaTotals& totals, std::vector<std::string>& failures) {
  const core::FleetConfig& config = *sample.fleet;
  const core::ExperimentConfig& experiment = config.experiment;
  const gpupower::gemm::GemmProblem problem{experiment.n, experiment.n,
                                            experiment.n, 1.0f, 0.0f,
                                            experiment.pattern.transpose_b};
  const gpusim::GpuSimulator activity_sim(
      experiment.gpu,
      core::replica_sim_options(experiment, sample.seed_index));
  std::vector<gpusim::ActivityTotals> variants;
  {
    const Stage stage("perfbench.fleet.variants", totals.variants_ns);
    variants = core::replica_activity_variants(
        activity_sim, experiment, config.phase_patterns,
        widest_timeline(config), problem, sample.seed_index);
  }
  gpusim::fleet::FleetRun run;
  {
    const core::obs::Span span("perfbench.fleet.run");
    run = core::run_fleet_seed_replica(config, sample.seed_index);
  }
  totals.slices += static_cast<double>(run.fleet_power_w.size());
  ++totals.fleet_replicas;
  if (variants.empty() || !(variants.front() == composed)) {
    failures.push_back(sample.id +
                       ": fleet activity variant differs from the "
                       "layer-by-layer activity of its working point");
  }
  // The replay is timed on its own: run_fleet_seed_replica minus the
  // variants call is dominated by the variance of the input build.
  gpusim::fleet::FleetRun replayed;
  {
    const Stage stage("perfbench.fleet.replay", totals.replay_ns);
    replayed = replay_fleet_from(config, sample.seed_index, variants, problem);
  }
  if (!same_run(replayed, run)) {
    failures.push_back(sample.id +
                       ": fleet replay from replica_activity_variants "
                       "differs from run_fleet_seed_replica");
  }
}

double per(std::int64_t total_ns, int count, double unit_ns) {
  return count > 0 ? static_cast<double>(total_ns) / unit_ns / count : 0.0;
}

}  // namespace

void replay_replica_layers(const std::vector<LayerSample>& samples,
                           MetricValues& out,
                           std::vector<std::string>& parity_failures) {
  ReplicaTotals totals;
  for (const LayerSample& sample : samples) {
    const gpusim::ActivityTotals activity = core::with_storage_type(
        sample.experiment.dtype, [&](auto tag) {
          return replay_one<typename decltype(tag)::type>(sample, totals,
                                                          parity_failures);
        });
    if (sample.fleet) replay_fleet(sample, activity, totals, parity_failures);
  }
  const int n = totals.replicas;
  const std::int64_t inputs_ns = totals.generate_ns + totals.place_ns +
                                 totals.sparsify_ns + totals.materialize_ns +
                                 totals.bitop_ns + totals.features_ns;
  const double replica_ns = static_cast<double>(
      inputs_ns + totals.activity_ns + totals.power_ns + totals.telemetry_ns);
  out["layers.replicas"] = n;
  out["inputs.build_ms"] = per(totals.build_ns, n, 1e6);
  out["inputs.generate_ms"] = per(totals.generate_ns, n, 1e6);
  out["inputs.place_ms"] = per(totals.place_ns, n, 1e6);
  out["inputs.sparsify_ms"] = per(totals.sparsify_ns, n, 1e6);
  out["inputs.materialize_ms"] = per(totals.materialize_ns, n, 1e6);
  out["inputs.bitop_ms"] = per(totals.bitop_ns, n, 1e6);
  out["inputs.features_ms"] = per(totals.features_ns, n, 1e6);
  out["inputs.staged_mb"] = n > 0 ? totals.staged_bytes / 1e6 / n : 0.0;
  out["inputs.share"] =
      replica_ns > 0 ? static_cast<double>(inputs_ns) / replica_ns : 0.0;
  out["activity.estimate_ms"] = per(totals.activity_ns, n, 1e6);
  out["activity.share"] =
      replica_ns > 0 ? static_cast<double>(totals.activity_ns) / replica_ns
                     : 0.0;
  out["activity.tiles_walked"] = n > 0 ? totals.tiles / n : 0.0;
  out["activity.us_per_tile"] =
      totals.tiles > 0 ? static_cast<double>(totals.activity_ns) / 1e3 /
                             totals.tiles
                       : 0.0;
  out["power.evaluate_us"] = per(totals.power_ns, n, 1e3);
  out["telemetry.sample_us"] = per(totals.telemetry_ns, n, 1e3);
  out["telemetry.samples"] = n > 0 ? totals.trace_samples / n : 0.0;
  const int f = totals.fleet_replicas;
  out["fleet.replicas"] = f;
  out["fleet.variants_ms"] = per(totals.variants_ns, f, 1e6);
  out["fleet.replay_ms"] = per(totals.replay_ns, f, 1e6);
  out["fleet.slices"] = f > 0 ? totals.slices / f : 0.0;
}

void replay_store_layer(
    const std::string& scratch_dir, const std::string& open_dir,
    const std::vector<std::pair<std::string, core::ScenarioResult>>& entries,
    MetricValues& out, std::vector<std::string>& parity_failures) {
  std::int64_t write_ns = 0;
  std::int64_t open_ns = 0;
  std::int64_t read_ns = 0;
  double entry_bytes = 0.0;
  const core::ResultStore writer(core::StoreOptions{scratch_dir, 0});
  for (const auto& [key, result] : entries) {
    bool saved = false;
    {
      const Stage stage("perfbench.store.save", write_ns);
      saved = writer.save(key, result);
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(writer.entry_path(key), ec);
    if (!saved || ec) {
      parity_failures.push_back("store: save failed for " + key);
      continue;
    }
    entry_bytes += static_cast<double>(size);
  }
  constexpr int kOpens = 5;
  for (int i = 0; i < kOpens; ++i) {
    const Stage stage("perfbench.store.open", open_ns);
    const core::ResultStore opened(core::StoreOptions{open_dir, 0});
    (void)opened;
  }
  const core::ResultStore reader(core::StoreOptions{scratch_dir, 0});
  for (const auto& [key, result] : entries) {
    core::ScenarioResult loaded;
    bool hit = false;
    {
      const Stage stage("perfbench.store.load", read_ns);
      hit = reader.load(key, result.kind(), loaded);
    }
    if (!hit || core::scenario_result_to_json(loaded).dump() !=
                    core::scenario_result_to_json(result).dump()) {
      parity_failures.push_back("store: load does not reproduce " + key);
    }
  }
  const int n = static_cast<int>(entries.size());
  out["store.write_ms"] = per(write_ns, n, 1e6);
  out["store.read_us"] = per(read_ns, n, 1e3);
  out["store.open_ms"] = per(open_ns, kOpens, 1e6);
  out["store.entry_kb"] = n > 0 ? entry_bytes / 1e3 / n : 0.0;
}

void replay_spec_layer(const std::vector<WorkloadRequest>& requests,
                       MetricValues& out,
                       std::vector<std::string>& parity_failures) {
  std::int64_t parse_ns = 0;
  std::int64_t expand_ns = 0;
  std::int64_t key_ns = 0;
  double key_bytes = 0.0;
  int parses = 0;
  int keys = 0;
  // Whole passes over the request texts until the sample is long enough
  // to time (the texts are tiny next to the clock's resolution).
  const std::int64_t start = now_ns();
  for (int pass = 0; pass < 200 && (pass < 3 || now_ns() - start < 200'000'000);
       ++pass) {
    for (const WorkloadRequest& request : requests) {
      core::SpecParseResult parsed;
      {
        const Stage stage("perfbench.spec.parse", parse_ns);
        parsed = core::parse_scenario_spec_text(request.text);
      }
      ++parses;
      std::vector<core::CampaignPoint> points;
      std::string error;
      bool expanded = false;
      {
        const Stage stage("perfbench.spec.expand", expand_ns);
        expanded = parsed.ok && core::expand_campaign(parsed.spec, points, error);
      }
      if (!expanded) {
        parity_failures.push_back("spec: " + request.id + ": " +
                                  (parsed.ok ? error : parsed.error));
        return;
      }
      for (const core::CampaignPoint& point : points) {
        std::string key;
        {
          const Stage stage("perfbench.spec.key", key_ns);
          key = core::canonical_scenario_key(point.config);
        }
        key_bytes += static_cast<double>(key.size());
        ++keys;
      }
    }
  }
  out["spec.parse_us"] = per(parse_ns, parses, 1e3);
  out["spec.expand_us"] = per(expand_ns, parses, 1e3);
  out["spec.key_us"] = per(key_ns, keys, 1e3);
  out["spec.key_bytes"] = keys > 0 ? key_bytes / keys : 0.0;
}

}  // namespace perfbench
