// perfbench: the repo benchmark.  Runs one workload against the gpupower
// library for a fixed time and prints every metric by name and unit, then
// one JSON result line:
//
//   perfbench --workload figure_sweep|fleet_grid|serve_warm --seed N
//             --seconds S --trace 0|1 [--root DIR]
//   perfbench --regen-expected [--workload W] [--root DIR]
//   perfbench --selftest [--root DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// arms obs tracing and metrics, runs the same loop, then replays a seeded
// sample of the workload through each layer's public calls (layers.hpp)
// and prints the per-layer metrics.  Every point of every run is checked
// against perfbench/expected_outputs.json; any mismatch or parity failure
// makes the result "correct": false and the exit code 1.  See README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"
#include "core/store/result_store.hpp"
#include "core/store/serve.hpp"
#include "expected.hpp"
#include "layers.hpp"
#include "patterns/rng.hpp"
#include "serve_client.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = gpupower::core;
using gpupower::analysis::JsonValue;
using core::obs::now_ns;

constexpr int kWorkers = 4;
constexpr int kSetupReps = 25;
constexpr int kServeClients = 4;
/// Requests per serve session before the client reconnects.  Bounded
/// because a session's pending list is never pruned: its age, not the
/// run's length, then sets how slow a request gets.
constexpr long kSessionRequests = 2000;
/// host_reference_s() on the host the bounds were set on, quiet.
constexpr double kNominalReferenceS = 0.15;
constexpr const char* kExpectedPath = "perfbench/expected_outputs.json";

struct Options {
  Workload workload = Workload::kFigureSweep;
  bool have_workload = false;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool regen = false;
  bool selftest = false;
  std::string root = ".";
};

/// Operations attempted and failed, with the first few reasons.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  void fail(std::string what) {
    ++failed;
    if (problems.size() < 8) problems.push_back(std::move(what));
  }
};

/// A scratch directory under .bench_build, removed on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] std::string sub(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

// ------------------------------------------------------------ batch passes

struct Point {
  std::string id;  ///< "<request id>:<point label>"
  std::string label;
  std::size_t request = 0;
  core::ScenarioConfig config;
};

struct Batch {
  std::unique_ptr<core::ExperimentEngine> engine;
  std::vector<Point> points;
  bool has_store = false;
};

/// The program's set-up for one batch: engine and worker pool, store open
/// (compact sweep), spec parse and campaign expansion — up to the first
/// submit.  Returns its wall time in seconds.
double setup_batch(const std::vector<WorkloadRequest>& requests,
                   const std::string& store_dir, Batch& batch) {
  const std::int64_t start = now_ns();
  core::EngineOptions options = core::EngineOptions::with_workers(kWorkers);
  if (!store_dir.empty()) {
    options.store =
        std::make_shared<core::ResultStore>(core::StoreOptions{store_dir, 0});
    batch.has_store = true;
  }
  batch.engine = std::make_unique<core::ExperimentEngine>(options);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const core::SpecParseResult parsed =
        core::parse_scenario_spec_text(requests[r].text);
    std::vector<core::CampaignPoint> points;
    std::string error;
    if (!parsed.ok || !core::expand_campaign(parsed.spec, points, error)) {
      throw std::runtime_error(requests[r].id + ": " +
                               (parsed.ok ? error : parsed.error));
    }
    for (core::CampaignPoint& point : points) {
      batch.points.push_back({requests[r].id + ":" + point.label, point.label,
                              r, std::move(point.config)});
    }
  }
  return static_cast<double>(now_ns() - start) * 1e-9;
}

struct PassResult {
  double elapsed_s = 0.0;  ///< first submit -> last result
  std::vector<double> latency_ms;  ///< per point: batch submit -> result
  std::vector<core::ScenarioResult> results;
  std::vector<char> ok;
  std::int64_t submit_ns = 0;
  core::EngineStats stats;
};

/// Submits every point at once and waits for all of them, noting when
/// each result lands.
PassResult run_pass(const Batch& batch) {
  PassResult pass;
  const std::size_t n = batch.points.size();
  std::vector<core::ScenarioHandle> handles(n);
  std::vector<std::int64_t> done(n, 0);
  pass.ok.assign(n, 1);
  pass.results.resize(n);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t = now_ns();
    try {
      handles[i] = batch.engine->submit(batch.points[i].config);
    } catch (const std::exception&) {
      pass.ok[i] = 0;
      done[i] = now_ns();
    }
    pass.submit_ns += now_ns() - t;
  }
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < n; ++i) {
    if (handles[i].valid()) pending.push_back(i);
  }
  while (!pending.empty()) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    const std::int64_t now = now_ns();
    std::erase_if(pending, [&](std::size_t i) {
      if (!handles[i].ready()) return false;
      done[i] = now;
      return true;
    });
  }
  std::int64_t last = start;
  for (std::size_t i = 0; i < n; ++i) {
    last = std::max(last, done[i]);
    pass.latency_ms.push_back(static_cast<double>(done[i] - start) * 1e-6);
    if (!pass.ok[i]) continue;
    try {
      pass.results[i] = handles[i].get();
    } catch (const std::exception&) {
      pass.ok[i] = 0;
    }
  }
  pass.elapsed_s = static_cast<double>(last - start) * 1e-9;
  pass.stats = batch.engine->stats();
  return pass;
}

/// Checks every point of a pass against the expected digests.
void verify_pass(const Batch& batch, const PassResult& pass,
                 const ExpectedOutputs::Points* expected, Tally& tally) {
  for (std::size_t i = 0; i < batch.points.size(); ++i) {
    ++tally.attempted;
    const std::string& id = batch.points[i].id;
    if (!pass.ok[i]) {
      tally.fail(id + ": submit or compute threw");
      continue;
    }
    const auto it = expected != nullptr ? expected->find(id)
                                        : ExpectedOutputs::Points::const_iterator{};
    if (expected == nullptr || it == expected->end()) {
      tally.fail(id + ": no expected digest (run --regen-expected)");
    } else if (result_digest(pass.results[i]) != it->second) {
      tally.fail(id + ": result differs from the expected outputs");
    }
  }
}

/// Distinct GEMM working points (pattern, dtype, n, seed, sampling) the
/// points replicate — what a cross-kind activity memo could share.
std::size_t working_points(const std::vector<Point>& points) {
  std::set<std::string> keys;
  for (const Point& point : points) {
    core::ExperimentConfig experiment = point.config.experiment();
    const int seeds = experiment.seeds;
    experiment.gpu = gpupower::gpusim::GpuModel::kA100PCIe;
    experiment.seeds = 1;
    experiment.iterations = 0;
    experiment.sampler = gpupower::telemetry::SamplerConfig{};
    experiment.variation.reset();
    const std::string key =
        core::canonical_scenario_key(core::ScenarioConfig(experiment));
    for (int s = 0; s < seeds; ++s) keys.insert(key + "#" + std::to_string(s));
  }
  return keys.size();
}

std::string metrics_dump(const core::ScenarioResult& result) {
  JsonValue metrics = JsonValue::object();
  for (const auto& [name, value] : core::scenario_summary_metrics(result)) {
    metrics.set(name, JsonValue::number(value));
  }
  return metrics.dump();
}

/// Serve requests for a batch's requests, expecting its pass results.
std::vector<ServeRequest> serve_requests(
    const std::vector<WorkloadRequest>& requests, const Batch& batch,
    const PassResult& pass) {
  std::vector<ServeRequest> out(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    out[r].line = requests[r].text;
  }
  for (std::size_t i = 0; i < batch.points.size(); ++i) {
    if (!pass.ok[i]) continue;
    out[batch.points[i].request].metrics[batch.points[i].label] =
        metrics_dump(pass.results[i]);
  }
  return out;
}

// ----------------------------------------------------------- serve clients

struct ServeLoad {
  std::vector<ClientResult> clients;
  std::int64_t start_ns = 0;
  double elapsed_s = 0.0;
};

ServeLoad drive_clients(const std::string& socket,
                        const std::vector<ServeRequest>& requests,
                        std::uint64_t seed, int clients,
                        std::int64_t deadline_ns, long max_requests,
                        long session_requests) {
  ServeLoad load;
  load.clients.resize(static_cast<std::size_t>(clients));
  load.start_ns = now_ns();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      load.clients[static_cast<std::size_t>(c)] = run_serve_client(
          socket, requests,
          gpupower::patterns::derive_seed(seed, 0xC11E47u + c), deadline_ns,
          max_requests, session_requests);
    });
  }
  for (std::thread& thread : threads) thread.join();
  load.elapsed_s = static_cast<double>(now_ns() - load.start_ns) * 1e-9;
  return load;
}

void tally_clients(const ServeLoad& load, Tally& tally) {
  for (const ClientResult& client : load.clients) {
    tally.attempted += client.requests;
    for (long i = 0; i < client.failed; ++i) {
      tally.fail(client.first_problem.empty() ? "serve request failed"
                                              : client.first_problem);
    }
  }
}

/// serve.* metrics from a client load (counters from the obs registry).
void serve_layer_metrics(const ServeLoad& load, MetricValues& out) {
  double accepted = 0.0;
  double accepted_count = 0.0;
  double bytes = 0.0;
  double requests = 0.0;
  double growth = 0.0;
  int growth_sessions = 0;
  for (const ClientResult& client : load.clients) {
    for (const double ms : client.accepted_ms) accepted += ms;
    accepted_count += static_cast<double>(client.accepted_ms.size());
    bytes += static_cast<double>(client.bytes);
    requests += static_cast<double>(client.latency_ms.size());
    // p50 of each session's last decile of requests over its first.
    for (std::size_t k = 0; k < client.session_starts.size(); ++k) {
      const std::size_t begin = client.session_starts[k];
      const std::size_t end = k + 1 < client.session_starts.size()
                                  ? client.session_starts[k + 1]
                                  : client.latency_ms.size();
      const std::size_t decile = (end - begin) / 10;
      if (decile < 3) continue;
      const auto first = client.latency_ms.begin() +
                         static_cast<std::ptrdiff_t>(begin);
      const auto last = client.latency_ms.begin() +
                        static_cast<std::ptrdiff_t>(end);
      const auto d = static_cast<std::ptrdiff_t>(decile);
      growth += median(std::vector<double>(last - d, last)) /
                median(std::vector<double>(first, first + d));
      ++growth_sessions;
    }
  }
  out["serve.accepted_ms"] =
      accepted_count > 0 ? accepted / accepted_count : 0.0;
  out["serve.bytes_per_request"] = requests > 0 ? bytes / requests : 0.0;
  out["serve.requests"] = requests;
  out["serve.dedup_hits"] =
      static_cast<double>(core::obs::counter("serve.dedup_hits").value());
  out["serve.store_hits"] =
      static_cast<double>(core::obs::counter("serve.store_hits").value());
  out["serve.latency_growth"] =
      growth_sessions > 0 ? growth / growth_sessions : 0.0;
}

// --------------------------------------------------------- engine counters

struct EngineTotals {
  core::EngineStats stats;
  double elapsed_s = 0.0;
  std::int64_t submit_ns = 0;
  long submits = 0;
  std::size_t working_points = 0;
  std::uint64_t store_lookups = 0;

  void add(const core::EngineStats& s, bool has_store, double elapsed,
           std::size_t points_worked) {
    stats.submitted += s.submitted;
    stats.cache_hits += s.cache_hits;
    stats.jobs_computed += s.jobs_computed;
    stats.replicas_run += s.replicas_run;
    stats.store_hits += s.store_hits;
    stats.compute_seconds += s.compute_seconds;
    stats.queue_wait_seconds += s.queue_wait_seconds;
    if (has_store) store_lookups += s.submitted - s.cache_hits;
    elapsed_s += elapsed;
    working_points += points_worked;
  }
};

void engine_layer_metrics(const EngineTotals& e, MetricValues& out) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const core::EngineStats& s = e.stats;
  out["engine.submit_us"] =
      ratio(static_cast<double>(e.submit_ns) * 1e-3, e.submits);
  // Per replica task: the totals scale with however many passes ran.
  const auto replicas = static_cast<double>(s.replicas_run);
  out["engine.queue_wait_s"] = ratio(s.queue_wait_seconds, replicas);
  out["engine.compute_s"] = ratio(s.compute_seconds, replicas);
  out["engine.worker_busy_frac"] =
      ratio(s.compute_seconds, kWorkers * e.elapsed_s);
  out["engine.submitted"] = static_cast<double>(s.submitted);
  out["engine.replicas_run"] = static_cast<double>(s.replicas_run);
  out["engine.jobs_computed"] = static_cast<double>(s.jobs_computed);
  out["engine.cache_hits"] = static_cast<double>(s.cache_hits);
  out["engine.cache_hit_ratio"] =
      ratio(static_cast<double>(s.cache_hits), static_cast<double>(s.submitted));
  out["engine.working_points"] = static_cast<double>(e.working_points);
  out["engine.redundant_replica_ratio"] =
      ratio(static_cast<double>(s.replicas_run),
            static_cast<double>(e.working_points));
  out["store.lookups"] = static_cast<double>(e.store_lookups);
  out["store.hits"] = static_cast<double>(s.store_hits);
  out["store.hit_ratio"] = ratio(static_cast<double>(s.store_hits),
                                 static_cast<double>(e.store_lookups));
}

// ------------------------------------------------------------ layer sample

/// The fleet_grid shape at another workload's working point, so every
/// workload's traced run times the fleet layer on its own inputs.
core::FleetConfig fleet_probe(const core::ExperimentConfig& experiment) {
  const core::SpecParseResult parsed =
      core::parse_scenario_spec_text(fleet_grid_requests(0).front().text);
  std::vector<core::CampaignPoint> points;
  std::string error;
  if (!parsed.ok || !core::expand_campaign(parsed.spec, points, error)) {
    throw std::runtime_error("fleet probe spec: " + parsed.error + error);
  }
  core::FleetConfig config = points.front().config.fleet();
  config.experiment = experiment;
  return config;
}

std::vector<LayerSample> layer_samples(Workload workload, const Batch& batch,
                                       std::uint64_t seed) {
  constexpr std::size_t kFleetProbes = 2;
  const std::size_t count = workload == Workload::kFigureSweep ? 8
                            : workload == Workload::kFleetGrid ? 4
                                                               : 16;
  gpupower::patterns::Xoshiro256 rng(
      gpupower::patterns::derive_seed(seed, 0x1A7E55u));
  std::vector<LayerSample> samples;
  for (std::size_t i = 0; i < count; ++i) {
    const Point& point = batch.points[static_cast<std::size_t>(
        rng.uniform_below(batch.points.size()))];
    LayerSample sample;
    sample.id = point.id;
    sample.experiment = point.config.experiment();
    if (workload == Workload::kFleetGrid) {
      // Every fleet point shares the working point; walk its seeds.
      sample.seed_index = static_cast<int>(i) % sample.experiment.seeds;
      sample.fleet = point.config.fleet();
    } else if (i < kFleetProbes) {
      sample.fleet = fleet_probe(sample.experiment);
    }
    sample.id += '#';
    sample.id += std::to_string(sample.seed_index);
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<std::pair<std::string, core::ScenarioResult>> store_entries(
    const Batch& batch, const PassResult& pass, std::size_t limit) {
  std::vector<std::pair<std::string, core::ScenarioResult>> entries;
  for (std::size_t i = 0; i < batch.points.size() && entries.size() < limit;
       ++i) {
    if (!pass.ok[i]) continue;
    entries.emplace_back(core::canonical_scenario_key(batch.points[i].config),
                         pass.results[i]);
  }
  return entries;
}

// ---------------------------------------------------------------- workloads

struct RunOutput {
  Tally tally;
  MetricValues values;
  std::vector<std::string> notes;  ///< human lines printed before the JSON
  std::vector<std::string> parity_failures;
};

std::vector<WorkloadRequest> batch_requests(Workload workload, int cls) {
  return workload == Workload::kFigureSweep ? figure_sweep_requests(cls)
                                            : fleet_grid_requests(cls);
}

void latency_metrics(const std::vector<double>& latency, double scale,
                     const char* unit_name, RunOutput& out) {
  const double level = tail_level(latency.size());
  out.values["request_ms_p50"] = median(latency) * scale;
  out.values["request_ms_p99"] = quantile(latency, level) * scale;
  char line[200];
  std::snprintf(line, sizeof(line),
                "request latency: %zu %s; request_ms_p99 is the p%.2f "
                "(the highest percentile <= p99 with >= 10 samples beyond it)",
                latency.size(), unit_name, level * 100.0);
  out.notes.emplace_back(line);
}

/// Wall time of a fixed, benchmark-owned kernel on kWorkers threads —
/// RNG fill, transcendental transform, a sort and a bit scan over a 4 MB
/// buffer each, the resource mix of the input layer — as a gauge of how
/// fast the host runs right now.  No program code runs in it.
double host_reference_s() {
  // Where the kernels' results go, so the compiler cannot drop them.
  static std::atomic<std::uint64_t> sink_total{0};
  const std::int64_t start = now_ns();
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([t] {
      std::vector<float> buffer(1 << 20);
      std::uint64_t state = 0x9E3779B97F4A7C15ULL + static_cast<unsigned>(t);
      std::uint64_t sink = 0;
      for (int rep = 0; rep < 2; ++rep) {
        for (float& x : buffer) {
          state ^= state << 13;
          state ^= state >> 7;
          state ^= state << 17;
          const double u = static_cast<double>((state >> 11) + 1) * 0x1p-53;
          x = static_cast<float>(std::sqrt(-2.0 * std::log(u)) *
                                 std::cos(6.283185307179586 * u));
        }
        std::sort(buffer.begin(), buffer.begin() + (1 << 18));
        for (const float x : buffer) {
          std::uint32_t bits = 0;
          std::memcpy(&bits, &x, sizeof(bits));
          sink += static_cast<std::uint64_t>(std::popcount(bits));
        }
      }
      sink_total.fetch_add(sink, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return static_cast<double>(now_ns() - start) * 1e-9;
}

/// Three back-to-back reference timings, so one contention spike moves the
/// run's median reference little.
void sample_host_reference(std::vector<double>& out) {
  for (int i = 0; i < 3; ++i) out.push_back(host_reference_s());
}

std::string setup_note(const std::vector<double>& setup_s) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "set-up: %zu samples, quartiles %.4g / %.4g / %.4g ms",
                setup_s.size(), quantile(setup_s, 0.25) * 1e3,
                median(setup_s) * 1e3, quantile(setup_s, 0.75) * 1e3);
  return line;
}

void run_batch_workload(const Options& opt, const ExpectedOutputs& expected,
                        const ScratchDir& scratch, RunOutput& out) {
  const int cls = seed_class(opt.seed);
  const std::vector<WorkloadRequest> requests =
      batch_requests(opt.workload, cls);
  const bool with_store = opt.workload == Workload::kFleetGrid;
  const ExpectedOutputs::Points* digests =
      expected.group(workload_name(opt.workload), std::to_string(cls));

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Batch batch;
    setup_s.push_back(setup_batch(
        requests, with_store ? scratch.sub("setup" + std::to_string(rep)) : "",
        batch));
  }

  EngineTotals engine;
  std::vector<double> latency;
  std::vector<double> pass_rates;  // points per second, one per pass
  double elapsed = 0.0;
  int passes = 0;
  Batch last_batch;
  PassResult last_pass;
  std::string last_store;
  std::string pass_times;
  std::vector<double> reference_s;
  while (passes == 0 ||
         elapsed + 0.5 * last_pass.elapsed_s < opt.seconds) {
    Batch batch;
    const std::string store_dir =
        with_store ? scratch.sub("store" + std::to_string(passes)) : "";
    setup_s.push_back(setup_batch(requests, store_dir, batch));
    sample_host_reference(reference_s);
    PassResult pass = run_pass(batch);
    verify_pass(batch, pass, digests, out.tally);
    elapsed += pass.elapsed_s;
    pass_times += ' ';
    pass_times += std::to_string(pass.elapsed_s);
    pass_rates.push_back(static_cast<double>(batch.points.size()) /
                         pass.elapsed_s);
    latency.insert(latency.end(), pass.latency_ms.begin(),
                   pass.latency_ms.end());
    engine.add(pass.stats, batch.has_store, pass.elapsed_s,
               working_points(batch.points));
    engine.submit_ns += pass.submit_ns;
    engine.submits += static_cast<long>(batch.points.size());
    ++passes;
    if (!last_store.empty()) std::filesystem::remove_all(last_store);
    last_store = store_dir;
    last_batch = std::move(batch);
    last_pass = std::move(pass);
  }

  sample_host_reference(reference_s);
  // This machine's speed drifts by tens of percent over minutes (other
  // tenants), which would swamp any bound.  The rates and latencies are
  // therefore scaled to a nominal host: by the reference kernel's median
  // time in this run over its nominal time.  The raw figures are noted.
  const double speed = median(reference_s) / kNominalReferenceS;
  const double raw_rate = median(pass_rates);  // the median pass
  out.values["setup_s"] = median(setup_s);
  out.values["points_per_s"] = raw_rate * speed;
  out.values["requests_per_s"] = raw_rate * speed;
  latency_metrics(latency, 1.0 / speed, "point results", out);
  char line[256];
  std::snprintf(line, sizeof(line),
                "host reference kernel %.4f s (nominal %.2f s): rates x%.4f, "
                "latencies /%.4f; raw points_per_s %.4g, raw request_ms_p50 "
                "%.6g",
                median(reference_s), kNominalReferenceS, speed, speed,
                raw_rate, median(latency));
  out.notes.emplace_back(line);
  out.notes.push_back(std::to_string(passes) + " pass(es) of " +
                      std::to_string(last_batch.points.size()) +
                      " points in" + pass_times +
                      " s; a request is one point's engine submit");
  out.notes.push_back(setup_note(setup_s));
  if (!opt.trace) return;

  out.values["traced.points_per_s"] = out.values["points_per_s"];
  out.values["traced.request_ms_p50"] = out.values["request_ms_p50"];
  out.values["traced.request_ms_p99"] = out.values["request_ms_p99"];
  engine_layer_metrics(engine, out.values);

  // Serve probe: the workload's requests replayed over a serve socket
  // against the warm engine of the last pass (every point a dedup hit).
  {
    const std::vector<ServeRequest> probe =
        serve_requests(requests, last_batch, last_pass);
    ServeServer server(*last_batch.engine, scratch.sub("probe.sock"));
    if (!server.wait_ready(30.0)) throw std::runtime_error("serve probe down");
    const ServeLoad load =
        drive_clients(scratch.sub("probe.sock"), probe, opt.seed, 1, 0, 40, 0);
    tally_clients(load, out.tally);
    serve_layer_metrics(load, out.values);
    std::string error;
    if (!server.stop(error)) out.parity_failures.push_back("serve: " + error);
  }
  replay_spec_layer(requests, out.values, out.parity_failures);
  replay_store_layer(scratch.sub("store-replay"),
                     with_store ? last_store : scratch.sub("store-replay"),
                     store_entries(last_batch, last_pass, 16), out.values,
                     out.parity_failures);
  replay_replica_layers(layer_samples(opt.workload, last_batch, opt.seed),
                        out.values, out.parity_failures);
}

/// serve_warm's end-to-end figures as medians over fixed windows of the
/// run (requests filed by when their done event arrived), so a few seconds
/// of contention from a noisy neighbour move them less than they move the
/// run's pooled figures, which the notes still print.
void windowed_serve_metrics(const ServeLoad& load, double seconds,
                            RunOutput& out) {
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / 2.0));
  const double width_s = seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> latency(windows);
  std::vector<double> points(windows, 0.0);
  std::vector<double> pooled;
  for (const ClientResult& client : load.clients) {
    for (std::size_t i = 0; i < client.latency_ms.size(); ++i) {
      pooled.push_back(client.latency_ms[i]);
      const auto w = static_cast<std::size_t>(
          static_cast<double>(client.done_ns[i] - load.start_ns) * 1e-9 /
          width_s);
      if (w >= windows) continue;  // the in-flight tail past the deadline
      latency[w].push_back(client.latency_ms[i]);
      points[w] += static_cast<double>(client.done_points[i]);
    }
  }
  std::vector<double> request_rate, point_rate, p50, p99;
  for (std::size_t w = 0; w < windows; ++w) {
    request_rate.push_back(static_cast<double>(latency[w].size()) / width_s);
    point_rate.push_back(points[w] / width_s);
    p50.push_back(median(latency[w]));
    p99.push_back(quantile(latency[w], tail_level(latency[w].size())));
  }
  out.values["requests_per_s"] = median(request_rate);
  out.values["points_per_s"] = median(point_rate);
  out.values["request_ms_p50"] = median(p50);
  out.values["request_ms_p99"] = median(p99);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%zu windows of %.1f s, medians reported; pooled over the run: "
                "%zu requests, p50 %.4g ms, p99 %.4g ms",
                windows, width_s, pooled.size(), median(pooled),
                quantile(pooled, tail_level(pooled.size())));
  out.notes.emplace_back(line);
  const auto typical = static_cast<std::size_t>(median(request_rate) * width_s);
  std::snprintf(line, sizeof(line),
                "request_ms_p99 is a window's p%.2f (>= 10 samples beyond it) "
                "at the median window's %zu requests",
                tail_level(typical) * 100.0, typical);
  out.notes.emplace_back(line);
}

/// The untimed cold fill serve_warm reads from: every corpus point
/// computed once into the store and checked against the expected digests.
std::vector<ServeRequest> fill_serve_store(
    const std::vector<WorkloadRequest>& corpus, const std::string& store_dir,
    const ExpectedOutputs& expected, Tally& tally, EngineTotals& engine,
    Batch& batch, PassResult& pass) {
  (void)setup_batch(corpus, store_dir, batch);
  pass = run_pass(batch);
  verify_pass(batch, pass, expected.group("serve_warm", "corpus"), tally);
  engine.add(pass.stats, true, pass.elapsed_s, working_points(batch.points));
  return serve_requests(corpus, batch, pass);
}

void run_serve_workload(const Options& opt, const ExpectedOutputs& expected,
                        const ScratchDir& scratch, RunOutput& out) {
  const std::vector<WorkloadRequest> corpus = serve_corpus_requests();
  const std::string store_dir = scratch.sub("store");
  const std::string socket = scratch.sub("serve.sock");
  EngineTotals engine;
  Batch fill;
  PassResult fill_pass;
  const std::vector<ServeRequest> requests = fill_serve_store(
      corpus, store_dir, expected, out.tally, engine, fill, fill_pass);
  const double fill_s = fill_pass.elapsed_s;
  fill.engine.reset();

  // Set-up: open the populated store, build the engine, bring the socket
  // server up to accepting.  Repeated; the last one serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<core::ExperimentEngine> server_engine;
  std::unique_ptr<ServeServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) {
      std::string error;
      if (!server->stop(error)) throw std::runtime_error(error);
      server.reset();
      server_engine.reset();
    }
    const std::int64_t start = now_ns();
    core::EngineOptions options = core::EngineOptions::with_workers(kWorkers);
    options.store =
        std::make_shared<core::ResultStore>(core::StoreOptions{store_dir, 0});
    server_engine = std::make_unique<core::ExperimentEngine>(options);
    server = std::make_unique<ServeServer>(*server_engine, socket);
    if (!server->wait_ready(30.0)) throw std::runtime_error("serve never came up");
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const ServeLoad load =
      drive_clients(socket, requests, opt.seed, kServeClients, deadline, 0,
                    kSessionRequests);
  tally_clients(load, out.tally);
  out.values["setup_s"] = median(setup_s);
  windowed_serve_metrics(load, opt.seconds, out);
  out.notes.push_back(setup_note(setup_s));
  out.notes.push_back(std::to_string(kServeClients) +
                      " closed-loop client(s) for " +
                      std::to_string(load.elapsed_s) + " s; store filled in " +
                      std::to_string(fill_s) + " s (not in setup_s)");

  if (opt.trace) {
    out.values["traced.points_per_s"] = out.values["points_per_s"];
    out.values["traced.request_ms_p50"] = out.values["request_ms_p50"];
    out.values["traced.request_ms_p99"] = out.values["request_ms_p99"];
    serve_layer_metrics(load, out.values);
    // Submit cost on the warm serving engine: the cache hits serve makes.
    gpupower::patterns::Xoshiro256 rng(
        gpupower::patterns::derive_seed(opt.seed, 0x5B317u));
    for (int i = 0; i < 256; ++i) {
      const Point& point = fill.points[static_cast<std::size_t>(
          rng.uniform_below(fill.points.size()))];
      const std::int64_t t = now_ns();
      (void)server_engine->submit(point.config);
      engine.submit_ns += now_ns() - t;
      ++engine.submits;
    }
  }
  std::string error;
  if (!server->stop(error)) out.tally.fail("serve: " + error);
  server.reset();
  if (!opt.trace) return;

  engine.add(server_engine->stats(), true, load.elapsed_s, 0);
  server_engine.reset();
  engine_layer_metrics(engine, out.values);
  replay_spec_layer(corpus, out.values, out.parity_failures);
  replay_store_layer(scratch.sub("store-replay"), store_dir,
                     store_entries(fill, fill_pass, 16), out.values,
                     out.parity_failures);
  replay_replica_layers(layer_samples(opt.workload, fill, opt.seed),
                        out.values, out.parity_failures);
}

// ------------------------------------------------------------------ output

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Prints `defs` (also into the JSON result line) and `extras` (human
/// lines only); returns whether the run is correct.
bool print_result(const RunOutput& out, std::span<const MetricDef> defs,
                  std::span<const MetricDef> extras) {
  bool complete = true;
  JsonValue metrics = JsonValue::object();
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const MetricDef& def : defs) {
    const auto it = out.values.find(def.name);
    if (it == out.values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   def.name);
      complete = false;
      continue;
    }
    std::printf("%-34s %14.6g %s\n", def.name, it->second, def.unit);
    JsonValue entry = JsonValue::object();
    entry.set("value", JsonValue::number(it->second))
        .set("unit", JsonValue::string(def.unit));
    metrics.set(def.name, std::move(entry));
  }
  for (const MetricDef& def : extras) {
    const auto it = out.values.find(def.name);
    if (it == out.values.end()) continue;
    std::printf("%-34s %14.6g %s (not bounded)\n", def.name, it->second,
                def.unit);
  }
  const double failed_frac =
      out.tally.attempted > 0
          ? static_cast<double>(out.tally.failed) /
                static_cast<double>(out.tally.attempted)
          : 0.0;
  std::printf("%-34s %14.6g (%ld of %ld operations)\n", "failed_frac",
              failed_frac, out.tally.failed, out.tally.attempted);
  for (const std::string& problem : out.tally.problems) {
    std::printf("# failure: %s\n", problem.c_str());
  }
  for (const std::string& failure : out.parity_failures) {
    std::printf("# parity failure: %s\n", failure.c_str());
  }
  const bool correct = complete && out.tally.failed == 0 &&
                       out.parity_failures.empty() && out.tally.attempted > 0;
  JsonValue doc = JsonValue::object();
  doc.set("correct", JsonValue::boolean(correct))
      .set("attempted", JsonValue::integer(std::max(1L, out.tally.attempted)))
      .set("failed", JsonValue::integer(out.tally.failed))
      .set("metrics", std::move(metrics));
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
  return correct;
}

/// The ratios printed with the counts they are made of.
void add_ratio_notes(RunOutput& out) {
  MetricValues& v = out.values;
  char line[256];
  std::snprintf(line, sizeof(line),
                "engine.redundant_replica_ratio %.4g = %.0f replicas run / "
                "%.0f distinct working points",
                v["engine.redundant_replica_ratio"], v["engine.replicas_run"],
                v["engine.working_points"]);
  out.notes.emplace_back(line);
  std::snprintf(line, sizeof(line),
                "engine.cache_hit_ratio %.4g = %.0f cache hits / %.0f submits",
                v["engine.cache_hit_ratio"], v["engine.cache_hits"],
                v["engine.submitted"]);
  out.notes.emplace_back(line);
  std::snprintf(line, sizeof(line),
                "store.hit_ratio %.4g = %.0f store hits / %.0f store lookups",
                v["store.hit_ratio"], v["store.hits"], v["store.lookups"]);
  out.notes.emplace_back(line);
}

int run_workload(const Options& opt) {
  ExpectedOutputs expected;
  std::string error;
  if (!expected.load(kExpectedPath, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const ScratchDir scratch(".bench_build/perfbench-run/" +
                           std::string(workload_name(opt.workload)) + "-" +
                           std::to_string(::getpid()));
  if (opt.trace) {
    core::obs::set_trace_path(scratch.sub("trace.json"));
    core::obs::set_metrics_enabled(true);
  }
  RunOutput out;
  if (opt.workload == Workload::kServeWarm) {
    run_serve_workload(opt, expected, scratch, out);
  } else {
    run_batch_workload(opt, expected, scratch, out);
  }
  out.values["peak_rss_mb"] = peak_rss_mb();
  bool correct = false;
  if (opt.trace) {
    const core::obs::TraceCounts counts = core::obs::trace_counts();
    core::obs::set_trace_path("");  // no trace file at exit
    out.values["obs.spans_recorded"] = static_cast<double>(counts.recorded);
    out.values["obs.spans_dropped"] = static_cast<double>(counts.dropped);
    add_ratio_notes(out);
    correct = print_result(out, kPerLayer, {});
  } else {
    correct = print_result(out, kEndToEnd, kUnbounded);
  }
  return correct ? 0 : 1;
}

// ------------------------------------------------------------------- regen

/// One storeless pass over `requests`, digested point by point.
ExpectedOutputs::Points pass_digests(
    const std::vector<WorkloadRequest>& requests) {
  Batch batch;
  (void)setup_batch(requests, "", batch);
  const PassResult pass = run_pass(batch);
  ExpectedOutputs::Points points;
  for (std::size_t i = 0; i < batch.points.size(); ++i) {
    if (!pass.ok[i]) throw std::runtime_error(batch.points[i].id + " failed");
    points[batch.points[i].id] = result_digest(pass.results[i]);
  }
  return points;
}

int regenerate_expected(const Options& opt) {
  ExpectedOutputs expected;
  std::string error;
  (void)expected.load(kExpectedPath, error);  // keep other workloads' groups
  for (const Workload workload : kAllWorkloads) {
    if (opt.have_workload && workload != opt.workload) continue;
    const std::string name(workload_name(workload));
    if (workload == Workload::kServeWarm) {
      expected.set_group(name, "corpus", pass_digests(serve_corpus_requests()));
      std::fprintf(stderr, "perfbench: %s corpus done\n", name.c_str());
      continue;
    }
    for (int cls = 0; cls < kSeedClasses; ++cls) {
      expected.set_group(name, std::to_string(cls),
                         pass_digests(batch_requests(workload, cls)));
      std::fprintf(stderr, "perfbench: %s seed class %d done\n", name.c_str(),
                   cls);
    }
  }
  if (!expected.save(kExpectedPath, error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::fprintf(stderr, "perfbench: wrote %s\n", kExpectedPath);
  return 0;
}

// ---------------------------------------------------------------- selftest

int selftest() {
  int checks = 0;
  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  };

  // Quantile math.
  check(quantile({}, 0.5) == 0.0, "quantile of an empty sample is 0");
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of 3 samples");
  check(quantile({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.5, "interpolated median");
  check(std::abs(quantile({0.0, 10.0}, 0.99) - 9.9) < 1e-12,
        "linear interpolation between order statistics");
  check(tail_level(1000) == 0.99 && tail_level(5000) == 0.99,
        "p99 from 1000 samples up");
  check(tail_level(999) < 0.99, "no p99 below 1000 samples");
  check(samples_beyond(1000, 0.99) == 10, "p99 of 1000 has 10 samples beyond");
  check(tail_level(100) == 0.9, "p90 is the tail of 100 samples");
  check(tail_level(20) == 0.5 && tail_level(1) == 0.5,
        "tiny samples fall back to the median");
  bool tails_ok = true;
  for (std::size_t n = 21; n <= 5000; ++n) {
    tails_ok = tails_ok && samples_beyond(n, tail_level(n)) >= 10;
  }
  check(tails_ok, "every tail level keeps >= 10 samples beyond it");

  // BENCHMARK.json: charset, uniqueness, bounds, and the same metric set
  // as the tables this binary prints.
  {
    std::ifstream in("BENCHMARK.json");
    std::stringstream text;
    text << in.rdbuf();
    const gpupower::analysis::JsonParseResult parsed =
        gpupower::analysis::json_parse(text.str());
    check(parsed.ok && parsed.value.is_object(), "BENCHMARK.json parses");
    if (parsed.ok && parsed.value.is_object()) {
      const std::regex name_re("^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$");
      const std::regex unit_re("^[A-Za-z0-9_/%.-]{1,16}$");
      std::set<std::string> names;
      const auto section = [&](const char* key, const MetricDef* defs,
                               std::size_t count, bool bounded) {
        const JsonValue* list = parsed.value.find(key);
        std::set<std::pair<std::string, std::string>> declared;
        std::set<std::pair<std::string, std::string>> printed;
        for (std::size_t i = 0; i < count; ++i) {
          printed.emplace(defs[i].name, defs[i].unit);
        }
        if (list == nullptr || !list->is_array()) {
          check(false, std::string("BENCHMARK.json has ") + key);
          return;
        }
        for (std::size_t i = 0; i < list->size(); ++i) {
          const JsonValue& m = list->at(i);
          const JsonValue* name = m.find("name");
          const JsonValue* unit = m.find("unit");
          const JsonValue* bound = m.find("bound");
          const std::string n = name != nullptr ? name->as_string() : "";
          const std::string u = unit != nullptr ? unit->as_string() : "";
          check(std::regex_match(n, name_re), "metric name charset: " + n);
          check(std::regex_match(u, unit_re), "metric unit charset: " + u);
          check(names.insert(n).second, "metric name used once: " + n);
          if (bounded) {
            const double b = bound != nullptr ? bound->as_number(-1.0) : -1.0;
            check(b > 0.0 && b <= 0.25, "bound in (0, 0.25]: " + n);
          }
          declared.emplace(n, u);
        }
        check(declared == printed,
              std::string(key) + " matches the metrics perfbench prints");
      };
      section("end_to_end", kEndToEnd, std::size(kEndToEnd), true);
      section("per_layer", kPerLayer, std::size(kPerLayer), false);
      std::set<std::string> workloads;
      if (const JsonValue* list = parsed.value.find("workloads")) {
        for (std::size_t i = 0; i < list->size(); ++i) {
          const JsonValue* name = list->at(i).find("name");
          if (name != nullptr) workloads.insert(name->as_string());
        }
      }
      std::set<std::string> known;
      for (const Workload w : kAllWorkloads) known.emplace(workload_name(w));
      check(workloads == known, "BENCHMARK.json names the three workloads");
    }
  }

  // Expected outputs: digest sensitivity and a file round trip.
  {
    gpupower::core::ExperimentResult result;
    result.power_w = 250.0;
    const std::string digest = result_digest(core::ScenarioResult(result));
    check(digest.size() == 16 &&
              digest == result_digest(core::ScenarioResult(result)),
          "digest is 16 hex digits and stable");
    result.power_w = std::nextafter(250.0, 300.0);
    check(result_digest(core::ScenarioResult(result)) != digest,
          "a one-ulp change moves the digest");

    ExpectedOutputs original;
    original.set_group("figure_sweep", "3", {{"fig3a:fp16@0", digest}});
    original.set_group("serve_warm", "corpus", {{"a100/fp16/fig3a:x", "0"}});
    const ScratchDir scratch(".bench_build/perfbench-run/selftest-" +
                             std::to_string(::getpid()));
    const std::string path = scratch.sub("expected.json");
    std::string error;
    ExpectedOutputs reloaded;
    check(original.save(path, error) && reloaded.load(path, error) &&
              reloaded == original,
          "expected outputs survive a save/load round trip " + error);

    ExpectedOutputs committed;
    check(committed.load(kExpectedPath, error), "committed file loads");
    bool groups = committed.group("serve_warm", "corpus") != nullptr;
    for (const Workload w : {Workload::kFigureSweep, Workload::kFleetGrid}) {
      for (int cls = 0; cls < kSeedClasses; ++cls) {
        groups = groups &&
                 committed.group(workload_name(w), std::to_string(cls)) != nullptr;
      }
    }
    check(groups, "committed file covers every seed class and the corpus");
  }

  for (const std::string& failure : failures) {
    std::printf("selftest FAILED: %s\n", failure.c_str());
  }
  std::printf("selftest: %d of %d checks passed\n",
              checks - static_cast<int>(failures.size()), checks);
  return failures.empty() ? 0 : 1;
}

// -------------------------------------------------------------------- main

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "figure_sweep|fleet_grid|serve_warm --seed N --seconds S "
               "--trace 0|1 [--root DIR]\n"
               "       perfbench --regen-expected [--workload W] [--root DIR]\n"
               "       perfbench --selftest [--root DIR]\n",
               problem.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        if (!parse_workload(value(), opt.workload)) usage("unknown workload");
        opt.have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = opt.seconds > 0.0;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--root") {
        opt.root = value();
      } else if (arg == "--regen-expected") {
        opt.regen = true;
      } else if (arg == "--selftest") {
        opt.selftest = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!opt.regen && !opt.selftest &&
      !(opt.have_workload && have_seed && have_seconds && have_trace)) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse_args(argc, argv);
  try {
    std::filesystem::current_path(opt.root);
    if (opt.selftest) return perfbench::selftest();
    if (opt.regen) return perfbench::regenerate_expected(opt);
    return perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
