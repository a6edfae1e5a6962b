// The engine as a long-lived service: `gpowerctl serve` reads
// newline-delimited scenario/campaign spec JSON (core/spec.hpp) and streams
// one NDJSON event per completed scenario as results land — not at
// wait_all() — so a client watching a campaign sees points arrive in
// completion order.  Any number of concurrent sessions (stdin, or one per
// Unix-socket client) multiplex onto ONE engine and ONE result store:
// identical scenarios submitted by different clients dedup through the
// shared cache/store and are computed at most once.
//
// Request lines:
//   {"scenario": "fleet", ...}      any single-scenario, campaign, or dag
//                                   spec, on one line
//   stats                           emit an engine stats event
//   {"cmd":"stats"}                 same, as a JSON command (any line with
//                                   a "cmd" key is a command, not a spec)
//   sessions / {"cmd":"sessions"}   emit a sessions event listing every
//                                   live session's counters
//
// Response events (one compact JSON object per line):
//   {"type":"accepted","req":1,"scenario":"fleet","points":12}
//   {"type":"result","req":1,"point":"uniform@0.50","scenario":"fleet",
//    "metrics":{"energy_j":...,"completion_s":...,...}}
//                  (with ServeOptions::full_results, result events and
//                   node-event points add "spec" and "result":
//                   scenario_to_json)
//   {"type":"done","req":1,"points":12}
//   {"type":"error","req":2,"error":"..."}
//   {"type":"node","req":3,"node":"grid","kind":"campaign",
//    "points":[{"label":"uniform@0.50","metrics":{...}},...],
//    "result":{...}}   (dag requests: one per node as it finalises, in
//                       deterministic node order; "result" on
//                       reduce/search nodes; a dag request's accepted
//                       "points" counts nodes, and done follows the last
//                       node event)
//   {"type":"stats","engine":"4 worker(s), ...",
//    "metrics":{"gpupower_metrics":1,"engine":{...},"obs":{...}},
//    "sessions":[{"id":1,...},...]}
//   {"type":"sessions","sessions":[{"id":1,"age_s":0.8,"requests":2,
//    "points":12,"results":9,"errors":0,"dedup_hits":3,"store_hits":1,
//    "bytes_streamed":20480},...]}
//
// Stats events carry both the human counter line and the full
// ExperimentEngine::metrics_json() document (one schema with gpowerctl
// --metrics-out).  They are emitted on request and — with
// ServeOptions::stats_every = N — automatically after every N completed
// scenarios, so a long-lived session is inspectable without restart.
//
// Per-session accounting: every session (stdin or socket) registers in a
// process-wide registry and counts its own requests, accepted points,
// emitted results/errors, engine dedup / store hits (attributed through
// ExperimentEngine::SubmitOutcome, not racy stats diffs), and bytes
// streamed.  The live listing is embedded in every stats event and
// queryable via `sessions`; session totals also feed process-wide
// `serve.*` counters and a `serve.active_sessions` gauge in the obs
// registry (visible in metrics_json() when metrics are on).
//
// Wake model: nothing polls.  Each session's streamer sleeps on a
// condition variable and is woken by whatever gives it work — a queued
// event (accepted, error, stats, sessions, dag node/done), the completion
// of one of its running points (ScenarioHandle::on_ready, fired by the
// engine worker that finishes the job), or the reader reaching EOF.
// Cache and store hits are done at submit, so the accepted event's wake
// finds them.  A woken streamer emits the queued events
// first, then every ready point in submission order, each followed by its
// request's done event when it is the last, and writes the batch with
// one flush.  Emitted points leave the session, so a long-lived
// connection costs the same per request at its millionth as at its first.
// A request line longer than 1 MiB is discarded up to its newline and
// answered with one error event naming the limit; it counts as a request.
//
// Metric names match the bench documents (kind_bench_metrics in
// gpowerctl / BENCH_*.json), so serve output can be cross-checked against
// `gpowerctl run --bench-out` — CI does exactly that.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/engine.hpp"

namespace gpupower::core {

struct ServeOptions {
  /// Attach each point's "spec" and "result" documents (scenario_to_json:
  /// the spec and the store's result codec) to every result and node event,
  /// not just the summary metrics.
  bool full_results = false;
  /// Emit a stats event after every N completed scenarios; 0 (default)
  /// emits only on request, keeping the historical event stream exact.
  int stats_every = 0;
};

/// Serves one client: reads request lines from `in` until EOF, submits
/// onto the shared engine, and streams events to `out` as scenarios
/// complete.  Returns the number of request lines consumed.  A malformed
/// line emits an error event and the session continues — one bad request
/// must not kill a long-lived service.  Thread-safe with respect to the
/// engine: run any number of sessions against one engine concurrently.
long serve_session(ExperimentEngine& engine, std::istream& in,
                   std::ostream& out, const ServeOptions& options = {});

/// Live-session registry snapshot as a JSON array, one object per active
/// serve session:
///   {"id":n,"age_s":x,"requests":n,"points":n,"results":n,"errors":n,
///    "dedup_hits":n,"store_hits":n,"bytes_streamed":n}
/// Sessions appear for their lifetime only (counters are cumulative
/// within a session; process-wide cumulative totals live in the obs
/// `serve.*` counters).  Sorted by id; safe from any thread.
[[nodiscard]] analysis::JsonValue serve_sessions_json();

/// Summary metrics for one result in emission order, named exactly like
/// the bench-document metrics ("power_w"/"energy_per_iter_j" for static,
/// "energy_j"/"completion_s"/"backlog_mean_s"/"backlog_max_s" for
/// dvfs/fleet) — shared by serve result events and gpowerctl's bench
/// export so the two can never drift apart.
[[nodiscard]] std::vector<std::pair<std::string, double>>
scenario_summary_metrics(const ScenarioResult& result);

/// Cooperative shutdown handle for serve_unix_socket: another thread
/// calls request_stop() and the accept loop unwinds cleanly — in-flight
/// sessions finish, their threads are joined, and the socket file is
/// removed.  Without one (the gpowerctl default) the server runs until
/// the process dies, exactly as before.
class ServeSocketControl {
 public:
  ServeSocketControl() = default;
  ServeSocketControl(const ServeSocketControl&) = delete;
  ServeSocketControl& operator=(const ServeSocketControl&) = delete;

  /// Idempotent; safe from any thread (including signal-free contexts
  /// only — it takes a lock, so do NOT call from a signal handler).
  void request_stop();

  [[nodiscard]] bool stop_requested() const;

  /// Session threads the server currently tracks (live connections plus
  /// at most a few just-finished ones awaiting their reap on the next
  /// accept).  Bounded by concurrent clients, NOT total clients served —
  /// the regression guard for the one-thread-per-client-forever leak.
  [[nodiscard]] std::size_t tracked_sessions() const;

 private:
  friend bool serve_unix_socket(ExperimentEngine&, const std::string&,
                                const ServeOptions&, std::string&,
                                ServeSocketControl*);
  /// The server parks its listening fd here so request_stop() can
  /// shutdown(2) it — the one safe way to unblock a concurrent accept(2)
  /// (close(2) from another thread races fd reuse).
  void attach_listener(int fd);
  void detach_listener();
  void set_tracked_sessions(std::size_t count);

  mutable Mutex mutex_;
  int listen_fd_ GPUPOWER_GUARDED_BY(mutex_) = -1;
  bool stop_requested_ GPUPOWER_GUARDED_BY(mutex_) = false;
  std::size_t tracked_sessions_ GPUPOWER_GUARDED_BY(mutex_) = 0;
};

/// Blocking Unix-domain-socket server: binds `socket_path` (removing a
/// stale socket file first), accepts clients forever, and runs one
/// serve_session per connection on its own thread.  Returns true after a
/// clean stop through `control`; false on a socket-layer failure with
/// the reason in `error`.  Pass control=nullptr to run until the process
/// exits (the long-lived service default).
bool serve_unix_socket(ExperimentEngine& engine,
                       const std::string& socket_path,
                       const ServeOptions& options, std::string& error,
                       ServeSocketControl* control = nullptr);

}  // namespace gpupower::core
