#include "core/store/serve.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/json.hpp"
#include "core/annotations.hpp"
#include "core/dag/dag.hpp"
#include "core/obs/obs.hpp"
#include "core/spec.hpp"

namespace gpupower::core {
namespace {

using analysis::JsonValue;

/// One live session's counters.  The owning session updates them from its
/// reader and streamer threads (atomics — the two sides share no lock),
/// and any session's reader may snapshot them for a sessions listing.
/// Per-session counts are unconditional (the `sessions` command must be
/// accurate with metrics off); the mirrored process-wide obs `serve.*`
/// counters gate themselves on the metrics switch as every metric does.
struct SessionMetrics {
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> points{0};
  std::atomic<std::uint64_t> results{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> dedup_hits{0};
  std::atomic<std::uint64_t> store_hits{0};
  std::atomic<std::uint64_t> bytes_streamed{0};
};

struct SessionRegistry {
  Mutex mutex;
  std::uint64_t next_id GPUPOWER_GUARDED_BY(mutex) = 1;
  /// Insertion order == id order (ids are monotonic), so listings are
  /// sorted without a sort.
  std::vector<std::shared_ptr<SessionMetrics>> live
      GPUPOWER_GUARDED_BY(mutex);
};

SessionRegistry& session_registry() {
  // Immortal (deliberately leaked): sessions on late-exiting threads must
  // never observe a destroyed registry.
  static SessionRegistry* registry = new SessionRegistry;
  return *registry;
}

std::shared_ptr<SessionMetrics> register_session() {
  auto metrics = std::make_shared<SessionMetrics>();
  metrics->start_ns = obs::now_ns();
  SessionRegistry& registry = session_registry();
  MutexLock lock(registry.mutex);
  metrics->id = registry.next_id++;
  registry.live.push_back(metrics);
  obs::counter("serve.sessions").add();
  obs::gauge("serve.active_sessions")
      .set(static_cast<std::int64_t>(registry.live.size()));
  return metrics;
}

void unregister_session(const std::shared_ptr<SessionMetrics>& metrics) {
  SessionRegistry& registry = session_registry();
  MutexLock lock(registry.mutex);
  for (auto it = registry.live.begin(); it != registry.live.end(); ++it) {
    if (it->get() == metrics.get()) {
      registry.live.erase(it);
      break;
    }
  }
  obs::gauge("serve.active_sessions")
      .set(static_cast<std::int64_t>(registry.live.size()));
}

/// RAII registration so a session leaves the registry however its scope
/// unwinds.
struct SessionRegistration {
  std::shared_ptr<SessionMetrics> metrics = register_session();
  SessionRegistration() = default;
  SessionRegistration(const SessionRegistration&) = delete;
  SessionRegistration& operator=(const SessionRegistration&) = delete;
  ~SessionRegistration() { unregister_session(metrics); }
};

/// Longest request line the reader buffers.  A longer line is discarded
/// up to its newline and answered with one error event, so a hostile or
/// broken client cannot grow the reader's buffer without bound.  The
/// largest committed spec is under 6 KB.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// One submitted scenario awaiting emission.
struct PendingPoint {
  long req = 0;
  std::string label;
  ScenarioConfig config;
  ScenarioHandle handle;
};

/// Per-request progress, for the trailing done event.
struct RequestProgress {
  std::size_t points = 0;
  std::size_t emitted = 0;
};

/// Shared between a session's reader thread, its DAG workers, its event
/// streamer and the engine workers that complete its points.  Completion
/// callbacks hold a shared_ptr to it, so one that fires after the
/// session returned (a client that vanished mid-request) still touches
/// live memory.
struct SessionState {
  Mutex mutex;
  /// The streamer sleeps on `wake` until `woken`: set by every pushed
  /// event, by every point completion, and by the reader's EOF.
  CondVar wake;
  bool woken GPUPOWER_GUARDED_BY(mutex) = false;
  /// Pre-formatted lines from the reader, the commands and DAG workers.
  std::deque<std::string> events GPUPOWER_GUARDED_BY(mutex);
  /// Points not yet emitted, in submission order.
  std::vector<PendingPoint> pending GPUPOWER_GUARDED_BY(mutex);
  /// Requests whose done event is not yet sent, by request number.
  std::unordered_map<long, RequestProgress> requests
      GPUPOWER_GUARDED_BY(mutex);
  bool reader_done GPUPOWER_GUARDED_BY(mutex) = false;
  long request_count GPUPOWER_GUARDED_BY(mutex) = 0;
};

/// Wakes the streamer.  Only the false -> true edge notifies: while
/// `woken` is already set the streamer is not waiting and will make
/// another pass anyway.
void wake_streamer(SessionState& session) GPUPOWER_REQUIRES(session.mutex) {
  if (session.woken) return;
  session.woken = true;
  session.wake.notify_one();
}

/// Queues one event line for the streamer and wakes it.
void push_event(SessionState& session, std::string line) {
  MutexLock lock(session.mutex);
  session.events.push_back(std::move(line));
  wake_streamer(session);
}

std::string error_event(long req, const std::string& message) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("error"))
      .set("req", JsonValue::integer(req))
      .set("error", JsonValue::string(message));
  return doc.dump();
}

std::string accepted_event(long req, ScenarioKind kind, std::size_t points) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("accepted"))
      .set("req", JsonValue::integer(req))
      .set("scenario", JsonValue::string(name(kind)))
      .set("points", JsonValue::integer(static_cast<long long>(points)));
  return doc.dump();
}

/// Accepted event for a dag request: "points" counts nodes (the number of
/// node events the client will see before done), since per-node point
/// counts are not all known up front (search nodes evaluate adaptively).
std::string dag_accepted_event(long req, std::size_t nodes) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("accepted"))
      .set("req", JsonValue::integer(req))
      .set("scenario", JsonValue::string("dag"))
      .set("points", JsonValue::integer(static_cast<long long>(nodes)));
  return doc.dump();
}

std::string done_event(long req, std::size_t points) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("done"))
      .set("req", JsonValue::integer(req))
      .set("points", JsonValue::integer(static_cast<long long>(points)));
  return doc.dump();
}

std::string stats_event(const ExperimentEngine& engine) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("stats"))
      .set("engine", JsonValue::string(engine_stats_line(engine)))
      // The same document gpowerctl --metrics-out writes
      // (ExperimentEngine::metrics_json), so a dashboard tailing a serve
      // session and one reading metrics files parse one schema.
      .set("metrics", engine.metrics_json())
      // Every live session's counters ride along, so one stats poll
      // (gpowerctl top) sees engine health AND who is driving it.
      .set("sessions", serve_sessions_json());
  return doc.dump();
}

std::string sessions_event() {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("sessions"))
      .set("sessions", serve_sessions_json());
  return doc.dump();
}

std::string result_event(const PendingPoint& point,
                         const ScenarioResult& result,
                         const ServeOptions& options) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("result"))
      .set("req", JsonValue::integer(point.req))
      .set("point", JsonValue::string(point.label))
      .set("scenario", JsonValue::string(name(point.config.kind())));
  JsonValue metrics = JsonValue::object();
  for (const auto& [metric, value] : scenario_summary_metrics(result)) {
    metrics.set(metric, JsonValue::number(value));
  }
  doc.set("metrics", std::move(metrics));
  if (options.full_results) {
    doc = scenario_to_json(point.config, result, std::move(doc));
  }
  // Compact dump: never contains a raw newline, so one event is one line.
  return doc.dump();
}

/// One dag node's event, emitted as the node finalises: the node name /
/// kind, every executed point with its summary metrics (plus its spec and
/// result codec documents with ServeOptions::full_results), and the
/// reduce/search result document.
std::string dag_node_event(long req, const dag::DagNodeRun& node,
                           const ServeOptions& options) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("node"))
      .set("req", JsonValue::integer(req))
      .set("node", JsonValue::string(node.name))
      .set("kind", JsonValue::string(dag::name(node.kind)));
  JsonValue points = JsonValue::array();
  for (const dag::DagNodePoint& point : node.points) {
    JsonValue entry = JsonValue::object();
    entry.set("label", JsonValue::string(point.label));
    JsonValue metrics = JsonValue::object();
    for (const auto& [metric, value] : scenario_summary_metrics(point.result)) {
      metrics.set(metric, JsonValue::number(value));
    }
    entry.set("metrics", std::move(metrics));
    if (options.full_results) {
      entry = scenario_to_json(point.config, point.result, std::move(entry));
    }
    points.push(std::move(entry));
  }
  doc.set("points", std::move(points));
  if (node.kind == dag::DagNodeKind::kReduce ||
      node.kind == dag::DagNodeKind::kSearch) {
    doc.set("result", node.doc);
  }
  return doc.dump();
}

std::string trimmed(const std::string& line) {
  std::size_t begin = 0;
  std::size_t end = line.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(line[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(line[end - 1]))) {
    --end;
  }
  return line.substr(begin, end - begin);
}

/// Folds one submit outcome into a session's dedup/store attribution and
/// the process-wide mirrors.
void count_outcome(SessionMetrics& metrics,
                   ExperimentEngine::SubmitOutcome outcome) {
  switch (outcome) {
    case ExperimentEngine::SubmitOutcome::kComputed:
      break;
    case ExperimentEngine::SubmitOutcome::kCacheHit:
      metrics.dedup_hits.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.dedup_hits").add();
      break;
    case ExperimentEngine::SubmitOutcome::kStoreHit:
      metrics.store_hits.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.store_hits").add();
      break;
  }
}

/// A dag request in flight on its own helper thread: run_dag blocks on
/// upstream results while resolving `$ref`s, and the reader must stay
/// responsive to further request lines.  The reader reaps finished
/// workers between requests (bounded growth on a long-lived session) and
/// joins the rest before declaring itself done — detaching is banned
/// project wide.
struct DagWorker {
  std::thread thread;
  std::shared_ptr<std::atomic<bool>> finished;
};

void reap_dag_workers(std::vector<DagWorker>& workers, bool join_all) {
  for (auto it = workers.begin(); it != workers.end();) {
    if (join_all || it->finished->load(std::memory_order_acquire)) {
      it->thread.join();
      it = workers.erase(it);
    } else {
      ++it;
    }
  }
}

/// Launches a dag request: accepted event now, one node event per node as
/// it finalises (deterministic order), done (or error) when the graph
/// completes.  Engine submissions inside run_dag dedup through the shared
/// cache/store exactly like direct submits from other sessions.
void handle_dag_request(ExperimentEngine& engine, SessionState& session,
                        SessionMetrics& metrics, const ServeOptions& options,
                        long req,
                        const std::shared_ptr<const dag::DagSpec>& spec,
                        std::vector<DagWorker>& workers) {
  push_event(session, dag_accepted_event(req, spec->nodes.size()));
  DagWorker worker;
  worker.finished = std::make_shared<std::atomic<bool>>(false);
  const auto finished = worker.finished;
  worker.thread = std::thread([&engine, &session, &metrics, options, req, spec,
                               finished] {
    const auto on_node = [&](const dag::DagNodeRun& node) {
      metrics.points.fetch_add(node.points.size(), std::memory_order_relaxed);
      obs::counter("serve.points").add(node.points.size());
      for (const dag::DagNodePoint& point : node.points) {
        count_outcome(metrics, point.outcome);
      }
      metrics.results.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.results").add();
      push_event(session, dag_node_event(req, node, options));
    };
    dag::DagRun run;
    std::string error;
    bool ok = false;
    try {
      ok = dag::run_dag(engine, *spec, run, error, on_node);
    } catch (const std::exception& e) {
      error = e.what();  // engine worker exceptions rethrown by handles
    }
    if (ok) {
      push_event(session, done_event(req, spec->nodes.size()));
    } else {
      metrics.errors.fetch_add(1, std::memory_order_relaxed);
      push_event(session, error_event(req, error));
    }
    finished->store(true, std::memory_order_release);
  });
  workers.push_back(std::move(worker));
}

/// Parses and submits one request line; records pending points and the
/// accepted (or error) event under the session lock, then asks each
/// still-running point's handle to wake the streamer once it is done.
void handle_request(ExperimentEngine& engine,
                    const std::shared_ptr<SessionState>& session,
                    SessionMetrics& metrics, const ServeOptions& options,
                    long req, const std::string& line,
                    std::vector<DagWorker>& dag_workers) {
  const SpecParseResult parsed = parse_scenario_spec_text(line);
  if (!parsed.ok) {
    metrics.errors.fetch_add(1, std::memory_order_relaxed);
    push_event(*session, error_event(req, parsed.error));
    return;
  }
  if (parsed.spec.dag != nullptr) {
    handle_dag_request(engine, *session, metrics, options, req,
                       parsed.spec.dag, dag_workers);
    return;
  }

  std::vector<PendingPoint> points;
  try {
    if (parsed.spec.campaign) {
      CampaignRun run;
      std::string error;
      if (!submit_campaign(engine, parsed.spec, run, error)) {
        metrics.errors.fetch_add(1, std::memory_order_relaxed);
        push_event(*session, error_event(req, error));
        return;
      }
      points.reserve(run.points.size());
      for (std::size_t i = 0; i < run.points.size(); ++i) {
        points.push_back({req, run.points[i].label, run.points[i].config,
                          run.handles[i]});
        count_outcome(metrics, run.outcomes[i]);
      }
    } else {
      ExperimentEngine::SubmitOutcome outcome;
      const ScenarioHandle handle = engine.submit(parsed.spec.config, &outcome);
      points.push_back({req, std::string(name(parsed.spec.config.kind())),
                        parsed.spec.config, handle});
      count_outcome(metrics, outcome);
    }
  } catch (const std::exception& e) {
    // Validator rejections (std::invalid_argument) arrive here.
    metrics.errors.fetch_add(1, std::memory_order_relaxed);
    push_event(*session, error_event(req, e.what()));
    return;
  }

  metrics.points.fetch_add(points.size(), std::memory_order_relaxed);
  obs::counter("serve.points").add(points.size());
  // Points already done (cache and store hits) are found by the wake
  // below; the rest wake the streamer as they complete.
  std::vector<ScenarioHandle> running;
  {
    MutexLock lock(session->mutex);
    session->events.push_back(
        accepted_event(req, points.front().config.kind(), points.size()));
    session->requests.emplace(req, RequestProgress{points.size(), 0});
    for (PendingPoint& point : points) {
      if (!point.handle.ready()) running.push_back(point.handle);
      session->pending.push_back(std::move(point));
    }
    wake_streamer(*session);
  }
  // Outside the session lock: a point that finished since the check above
  // runs its callback right here.
  for (const ScenarioHandle& handle : running) {
    handle.on_ready([session] {
      MutexLock lock(session->mutex);
      wake_streamer(*session);
    });
  }
}

/// Reads one request line of at most kMaxRequestLineBytes bytes (without
/// its newline) into `line`, like std::getline.  A longer line is
/// consumed up to its newline and reported as kTooLong with `line`
/// empty.
enum class LineRead { kLine, kTooLong, kEof };

LineRead read_request_line(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf* buffer = in.rdbuf();
  bool too_long = false;
  for (;;) {
    const int ch = buffer->sbumpc();
    if (ch == std::char_traits<char>::eof()) {
      if (too_long) return LineRead::kTooLong;
      return line.empty() ? LineRead::kEof : LineRead::kLine;
    }
    if (ch == '\n') return too_long ? LineRead::kTooLong : LineRead::kLine;
    if (too_long) continue;
    if (line.size() == kMaxRequestLineBytes) {
      too_long = true;
      line.clear();
      line.shrink_to_fit();
      continue;
    }
    line.push_back(static_cast<char>(ch));
  }
}

}  // namespace

analysis::JsonValue serve_sessions_json() {
  JsonValue sessions = JsonValue::array();
  const std::int64_t now = obs::now_ns();
  SessionRegistry& registry = session_registry();
  MutexLock lock(registry.mutex);
  for (const auto& m : registry.live) {
    const auto count = [](const std::atomic<std::uint64_t>& v) {
      return JsonValue::integer(
          static_cast<long long>(v.load(std::memory_order_relaxed)));
    };
    JsonValue entry = JsonValue::object();
    entry.set("id", JsonValue::integer(static_cast<long long>(m->id)))
        .set("age_s",
             JsonValue::number(static_cast<double>(now - m->start_ns) * 1e-9))
        .set("requests", count(m->requests))
        .set("points", count(m->points))
        .set("results", count(m->results))
        .set("errors", count(m->errors))
        .set("dedup_hits", count(m->dedup_hits))
        .set("store_hits", count(m->store_hits))
        .set("bytes_streamed", count(m->bytes_streamed));
    sessions.push(std::move(entry));
  }
  return sessions;
}

std::vector<std::pair<std::string, double>> scenario_summary_metrics(
    const ScenarioResult& result) {
  switch (result.kind()) {
    case ScenarioKind::kStatic: {
      const ExperimentResult& r = result.static_result();
      return {{"power_w", r.power_w},
              {"energy_per_iter_j", r.energy_per_iter_j}};
    }
    case ScenarioKind::kDvfs: {
      const DvfsResult& r = result.dvfs();
      return {{"energy_j", r.energy_j},
              {"completion_s", r.completion_s},
              {"backlog_mean_s", r.mean_backlog_s},
              {"backlog_max_s", r.backlog_max_s}};
    }
    case ScenarioKind::kFleet: {
      const FleetResult& r = result.fleet();
      return {{"energy_j", r.energy_j},
              {"completion_s", r.completion_s},
              {"backlog_mean_s", r.mean_backlog_s},
              {"backlog_max_s", r.backlog_max_s}};
    }
  }
  return {};
}

long serve_session(ExperimentEngine& engine, std::istream& in,
                   std::ostream& out, const ServeOptions& options) {
  const auto session = std::make_shared<SessionState>();
  const SessionRegistration registration;
  SessionMetrics& metrics = *registration.metrics;

  // The reader thread turns stdin/socket lines into submissions without
  // blocking the event stream: a client can pipeline many requests and
  // results of the first interleave with parsing of the rest.
  std::thread reader([&engine, &session, &metrics, &in, &options] {
    std::vector<DagWorker> dag_workers;
    std::string raw;
    long req = 0;
    for (;;) {
      const LineRead read = read_request_line(in, raw);
      if (read == LineRead::kEof) break;
      reap_dag_workers(dag_workers, /*join_all=*/false);
      const std::string line = trimmed(raw);
      if (read == LineRead::kLine && line.empty()) continue;
      ++req;
      metrics.requests.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.requests").add();
      if (read == LineRead::kTooLong) {
        metrics.errors.fetch_add(1, std::memory_order_relaxed);
        push_event(*session,
                   error_event(req, "request line exceeds the " +
                                        std::to_string(kMaxRequestLineBytes) +
                                        "-byte limit; line discarded"));
        continue;
      }
      if (line == "stats") {
        push_event(*session, stats_event(engine));
        continue;
      }
      if (line == "sessions") {
        push_event(*session, sessions_event());
        continue;
      }
      // JSON command lines ({"cmd":"stats"}) share the request grammar
      // with scenario specs; anything carrying a "cmd" key is a command,
      // never a spec.
      if (line.front() == '{') {
        const analysis::JsonParseResult parsed = analysis::json_parse(line);
        if (parsed.ok && parsed.value.is_object() &&
            parsed.value.find("cmd") != nullptr) {
          const analysis::JsonValue& cmd = *parsed.value.find("cmd");
          if (cmd.is_string() && cmd.as_string() == "stats") {
            push_event(*session, stats_event(engine));
          } else if (cmd.is_string() && cmd.as_string() == "sessions") {
            push_event(*session, sessions_event());
          } else {
            metrics.errors.fetch_add(1, std::memory_order_relaxed);
            push_event(*session,
                       error_event(req,
                                   "unknown cmd (supported commands are "
                                   "{\"cmd\":\"stats\"} and "
                                   "{\"cmd\":\"sessions\"})"));
          }
          continue;
        }
      }
      handle_request(engine, session, metrics, options, req, line,
                     dag_workers);
    }
    // Dag workers push node events until they finish; join them all
    // before declaring the reader done so the streamer never exits with a
    // dag still producing.
    reap_dag_workers(dag_workers, /*join_all=*/true);
    MutexLock lock(session->mutex);
    session->reader_done = true;
    session->request_count = req;
    wake_streamer(*session);
  });

  // Event streamer: sleeps until woken, then takes the queued events and
  // every point that is ready — in submission order — out of the session
  // under its lock, and formats and writes them with the lock released,
  // so neither a slow client nor a large result document ever blocks the
  // reader or an engine worker's completion callback.  Every line to the
  // client flows through emit(), so bytes_streamed is exact (payload +
  // newline).
  const auto emit = [&out, &metrics](const std::string& line) {
    out << line << '\n';
    metrics.bytes_streamed.fetch_add(line.size() + 1,
                                     std::memory_order_relaxed);
    obs::counter("serve.bytes_streamed").add(line.size() + 1);
  };
  /// A ready point and, when it is its request's last, the done event's
  /// point count (0 otherwise).
  struct ReadyPoint {
    PendingPoint point;
    std::size_t done_points = 0;
  };
  std::deque<std::string> events;  // streamer-thread locals
  std::vector<ReadyPoint> ready;
  std::size_t results_since_stats = 0;
  for (;;) {
    bool finished = false;
    {
      MutexLock lock(session->mutex);
      while (!session->woken) session->wake.wait(session->mutex);
      // Cleared before the scan, under the same lock: a completion after
      // this point sets it again and earns another pass.
      session->woken = false;
      events.swap(session->events);
      std::vector<PendingPoint>& pending = session->pending;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        PendingPoint& point = pending[i];
        if (!point.handle.ready()) {
          if (kept != i) pending[kept] = std::move(point);
          ++kept;
          continue;
        }
        ReadyPoint entry{std::move(point), 0};
        const auto progress = session->requests.find(entry.point.req);
        if (++progress->second.emitted == progress->second.points) {
          entry.done_points = progress->second.points;
          session->requests.erase(progress);
        }
        ready.push_back(std::move(entry));
      }
      pending.resize(kept);
      finished = session->reader_done && pending.empty();
    }

    for (const std::string& line : events) emit(line);
    events.clear();
    for (const ReadyPoint& entry : ready) {
      const PendingPoint& point = entry.point;
      std::string line;
      bool ok = true;
      try {
        line = result_event(point, point.handle.get(), options);
      } catch (const std::exception& e) {
        line = error_event(point.req, point.label + ": " + e.what());
        ok = false;
      }
      emit(line);
      (ok ? metrics.results : metrics.errors)
          .fetch_add(1, std::memory_order_relaxed);
      if (ok) obs::counter("serve.results").add();
      // Periodic stats: a long-lived session reports engine health every
      // N completed scenarios without being asked (off by default so the
      // event stream of existing clients is unchanged).  Counted per
      // result, not per wake, so the cadence is deterministic however
      // completions coalesce.
      if (options.stats_every > 0 &&
          ++results_since_stats >=
              static_cast<std::size_t>(options.stats_every)) {
        results_since_stats = 0;
        emit(stats_event(engine));
      }
      if (entry.done_points != 0) {
        emit(done_event(point.req, entry.done_points));
      }
    }
    ready.clear();
    out.flush();
    if (finished || !out) break;
  }
  reader.join();
  // The reader has exited and is joined: request_count is frozen, but the
  // analysis cannot see the join, so read it under the lock anyway (free).
  MutexLock lock(session->mutex);
  return session->request_count;
}

namespace {

/// Minimal bidirectional streambuf over a connected socket fd, so a
/// socket client reuses the exact stream-based serve_session.  Writes
/// collect in a put area that sync() (the streamer's one flush per wake)
/// hands to write(2) in one call; an event larger than the area is
/// written in area-sized pieces as it overflows.  The reader thread uses
/// only the get area and the streamer only the put area.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) override {
    if (!drain()) return traits_type::eof();
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
    return ch;
  }

  int sync() override { return drain() ? 0 : -1; }

 private:
  /// Writes out the put area; false once the peer is gone.
  bool drain() {
    const char* data = pbase();
    const char* const end = pptr();
    while (data < end) {
      // send(2) with MSG_NOSIGNAL: a vanished client is a failed write
      // (the streamer stops), not a SIGPIPE that kills the server.
      const ssize_t n = ::send(fd_, data, static_cast<std::size_t>(end - data),
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      data += n;
    }
    setp(out_, out_ + sizeof(out_));
    return true;
  }

  int fd_;
  char in_[4096];
  char out_[16384];
};

}  // namespace

void ServeSocketControl::request_stop() {
  MutexLock lock(mutex_);
  stop_requested_ = true;
  if (listen_fd_ >= 0) {
    // shutdown(2), not close(2): closing from another thread races fd
    // reuse, while shutdown leaves the fd valid and makes the parked
    // accept(2) return EINVAL immediately.
    (void)::shutdown(listen_fd_, SHUT_RDWR);
  }
}

bool ServeSocketControl::stop_requested() const {
  MutexLock lock(mutex_);
  return stop_requested_;
}

void ServeSocketControl::attach_listener(int fd) {
  MutexLock lock(mutex_);
  listen_fd_ = fd;
  if (stop_requested_) {
    // request_stop() already ran: poison the listener now so the first
    // accept(2) returns instead of parking forever.
    (void)::shutdown(listen_fd_, SHUT_RDWR);
  }
}

void ServeSocketControl::detach_listener() {
  MutexLock lock(mutex_);
  listen_fd_ = -1;
}

std::size_t ServeSocketControl::tracked_sessions() const {
  MutexLock lock(mutex_);
  return tracked_sessions_;
}

void ServeSocketControl::set_tracked_sessions(std::size_t count) {
  MutexLock lock(mutex_);
  tracked_sessions_ = count;
}

bool serve_unix_socket(ExperimentEngine& engine,
                       const std::string& socket_path,
                       const ServeOptions& options, std::string& error,
                       ServeSocketControl* control) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long: " + socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  (void)::unlink(socket_path.c_str());  // a stale socket from a crashed run
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    error = "bind/listen(" + socket_path + "): " + std::strerror(errno);
    (void)::close(listen_fd);
    return false;
  }

  if (control != nullptr) control->attach_listener(listen_fd);

  // One thread per live connection, reaped as clients disconnect.  A
  // long-lived service must not accumulate a joinable thread (kernel
  // stack + handle) per client forever, and detaching is banned project
  // wide (no-detach lint): each session flips its `finished` latch as its
  // last act, and the accept loop joins flagged threads — join is then
  // immediate — before taking the next client.
  struct SessionSlot {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::vector<SessionSlot> sessions;
  const auto reap_finished = [&sessions] {
    for (auto it = sessions.begin(); it != sessions.end();) {
      if (it->finished->load(std::memory_order_acquire)) {
        it->thread.join();
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
  };

  bool clean_stop = false;
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (control != nullptr && control->stop_requested()) {
        clean_stop = true;  // request_stop() shut the listener down
      } else {
        error = std::string("accept: ") + std::strerror(errno);
      }
      break;
    }
    reap_finished();
    auto finished = std::make_shared<std::atomic<bool>>(false);
    SessionSlot slot;
    slot.finished = finished;
    slot.thread = std::thread([&engine, options, client, finished] {
      FdStreamBuf buffer(client);
      std::istream in(&buffer);
      std::ostream out(&buffer);
      (void)serve_session(engine, in, out, options);
      (void)::shutdown(client, SHUT_RDWR);
      (void)::close(client);
      finished->store(true, std::memory_order_release);
    });
    sessions.push_back(std::move(slot));
    if (control != nullptr) control->set_tracked_sessions(sessions.size());
  }
  for (SessionSlot& session : sessions) session.thread.join();
  if (control != nullptr) control->detach_listener();
  (void)::close(listen_fd);
  (void)::unlink(socket_path.c_str());
  return clean_stop;
}

}  // namespace gpupower::core
