// Serve stress suite: many clients hammering ONE engine through the serve
// layer at once — the concurrency surface the TSan CI job exists to watch.
// Every session races the shared cache, the worker pool, and (over the
// socket) the accept loop; the assertions pin the service contract under
// that contention:
//   - result events are byte-identical across every concurrent session
//     (same engine, same cache entries, same JSON dump);
//   - overlapping submissions dedup: unique configs are computed exactly
//     once no matter how many clients ask;
//   - the socket server shuts down cleanly through ServeSocketControl
//     with all session threads joined and the socket file removed;
//   - events reach a client that keeps its connection open (completions
//     wake the streamer, not the reader), large events arrive byte-exact,
//     and an over-long request line costs one error event, not the session.
#include "core/store/serve.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json.hpp"
#include "core/engine.hpp"
#include "core/obs/obs.hpp"
#include "core/scenario.hpp"
#include "core/spec.hpp"

namespace gpupower::core {
namespace {

namespace fs = std::filesystem;

// Overlapping load: the campaign's n64 point and the single spec are the
// SAME config (the axis value equals the base), so across both lines a
// session submits 3 points but only 2 unique configs — the overlap the
// dedup assertions below count on.
const char kCampaignSpec[] =
    R"json({"scenario": "campaign", "name": "stress_fixture",)json"
    R"json( "base": {"scenario": "static", "experiment": {"gpu": "a100",)json"
    R"json( "dtype": "fp16", "n": 64, "seeds": 1,)json"
    R"json( "pattern": "gaussian(sigma=210)",)json"
    R"json( "sampling": {"tiles": 4, "k_fraction": 0.5}}},)json"
    R"json( "axes": [{"field": "experiment.n", "values": [)json"
    R"json( {"value": 64, "label": "n64"}, {"value": 96, "label": "n96"}]}]})json";

const char kSingleSpec[] =
    R"json({"scenario": "static", "experiment": {"gpu": "a100",)json"
    R"json( "dtype": "fp16", "n": 64, "seeds": 1,)json"
    R"json( "pattern": "gaussian(sigma=210)",)json"
    R"json( "sampling": {"tiles": 4, "k_fraction": 0.5}}})json";

constexpr int kSessions = 8;
constexpr std::size_t kPointsPerSession = 3;  // campaign(2) + single(1)

std::string session_input() {
  return std::string(kCampaignSpec) + "\n" + kSingleSpec + "\n";
}

/// Unique canonical keys across everything one session submits — the
/// ground truth for the jobs_computed assertions, derived from the same
/// spec machinery the server uses (no hard-coded counts to rot).
std::size_t unique_config_count() {
  std::set<std::string> keys;
  const SpecParseResult campaign = parse_scenario_spec_text(kCampaignSpec);
  EXPECT_TRUE(campaign.ok) << campaign.error;
  std::vector<CampaignPoint> points;
  std::string error;
  EXPECT_TRUE(expand_campaign(campaign.spec, points, error)) << error;
  for (const CampaignPoint& point : points) {
    keys.insert(canonical_scenario_key(point.config));
  }
  const SpecParseResult single = parse_scenario_spec_text(kSingleSpec);
  EXPECT_TRUE(single.ok) << single.error;
  keys.insert(canonical_scenario_key(single.spec.config));
  return keys.size();
}

/// The session's result lines, sorted — concurrent sessions emit points
/// in completion order, so ordering is the one legitimate difference;
/// the bytes themselves must match exactly.
std::vector<std::string> sorted_result_lines(const std::string& output) {
  std::vector<std::string> results;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto parsed = analysis::json_parse(line);
    EXPECT_TRUE(parsed.ok) << "unparseable event line: " << line;
    if (!parsed.ok) continue;
    const analysis::JsonValue* type = parsed.value.find("type");
    if (type != nullptr && type->as_string() == "result") {
      results.push_back(line);
    }
  }
  std::sort(results.begin(), results.end());
  return results;
}

std::size_t count_events(const std::string& output, const std::string& type) {
  std::size_t count = 0;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    const auto parsed = analysis::json_parse(line);
    if (!parsed.ok) continue;
    const analysis::JsonValue* t = parsed.value.find("type");
    if (t != nullptr && t->as_string() == type) ++count;
  }
  return count;
}

// N concurrent stream sessions against one engine: every session gets the
// full event set, result bytes are identical everywhere, and the engine
// computed each unique config exactly once.
TEST(ServeStress, ConcurrentStreamSessionsAreByteIdenticalAndDedup) {
  ExperimentEngine engine(EngineOptions::with_workers(4));
  std::vector<std::string> outputs(kSessions);

  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    clients.emplace_back([&engine, &outputs, i] {
      std::istringstream in(session_input());
      std::ostringstream out;
      const long requests = serve_session(engine, in, out);
      EXPECT_EQ(requests, 2);
      outputs[static_cast<std::size_t>(i)] = out.str();
    });
  }
  for (std::thread& client : clients) client.join();

  const std::vector<std::string> reference = sorted_result_lines(outputs[0]);
  ASSERT_EQ(reference.size(), kPointsPerSession);
  for (int i = 0; i < kSessions; ++i) {
    const std::string& output = outputs[static_cast<std::size_t>(i)];
    EXPECT_EQ(sorted_result_lines(output), reference) << "session " << i;
    EXPECT_EQ(count_events(output, "accepted"), 2u) << "session " << i;
    EXPECT_EQ(count_events(output, "done"), 2u) << "session " << i;
    EXPECT_EQ(count_events(output, "error"), 0u) << "session " << i;
  }

  const EngineStats stats = engine.stats();
  const std::size_t unique = unique_config_count();
  EXPECT_EQ(stats.submitted, kSessions * kPointsPerSession);
  EXPECT_EQ(stats.jobs_computed, unique);
  EXPECT_EQ(stats.cache_hits, stats.submitted - unique);
}

// --- socket server under multi-client load --------------------------------

int connect_with_retry(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  // The server thread may not have bound yet; retry briefly.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    (void)::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

bool send_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_to_eof(int fd) {
  std::string out;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  return out;
}

std::string stress_socket_path(const char* tag) {
  return (fs::temp_directory_path() /
          (std::string("gpupower_stress_") + tag + "_" +
           std::to_string(static_cast<long>(::getpid())) + ".sock"))
      .string();
}

// One socket server, many concurrent clients: every client sees the same
// result bytes, the shared engine dedups across connections, and
// request_stop() unwinds the accept loop cleanly (socket file removed,
// true returned).
TEST(ServeStress, SocketClientsShareOneEngineAndStopCleanly) {
  ExperimentEngine engine(EngineOptions::with_workers(4));
  const std::string socket_path = stress_socket_path("multi");

  ServeSocketControl control;
  std::string server_error;
  bool server_ok = false;
  std::thread server([&engine, &socket_path, &control, &server_error,
                      &server_ok] {
    server_ok = serve_unix_socket(engine, socket_path, ServeOptions{},
                                  server_error, &control);
  });

  std::vector<std::string> outputs(kSessions);
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    clients.emplace_back([&socket_path, &outputs, i] {
      const int fd = connect_with_retry(socket_path);
      ASSERT_GE(fd, 0) << "client " << i << " could not connect";
      ASSERT_TRUE(send_all(fd, session_input()));
      // Half-close: the session's reader sees EOF, streams the remaining
      // results, then the server closes the connection.
      (void)::shutdown(fd, SHUT_WR);
      outputs[static_cast<std::size_t>(i)] = read_to_eof(fd);
      (void)::close(fd);
    });
  }
  for (std::thread& client : clients) client.join();

  control.request_stop();
  server.join();
  EXPECT_TRUE(server_ok) << server_error;
  EXPECT_FALSE(fs::exists(socket_path));

  const std::vector<std::string> reference = sorted_result_lines(outputs[0]);
  ASSERT_EQ(reference.size(), kPointsPerSession);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(sorted_result_lines(outputs[static_cast<std::size_t>(i)]),
              reference)
        << "client " << i;
  }

  const EngineStats stats = engine.stats();
  const std::size_t unique = unique_config_count();
  EXPECT_EQ(stats.submitted, kSessions * kPointsPerSession);
  EXPECT_EQ(stats.jobs_computed, unique);
}

// Regression guard for the session-slot leak: the accept loop used to
// push one joinable std::thread per client and only join at shutdown, so
// a long-lived service accumulated a thread handle (and its unreclaimed
// pthread stack) for every client it ever served.  Finished sessions are
// now reaped on the next accept: after many sequential clients the
// server must track a handful of slots, not one per client.
TEST(ServeStress, FinishedSessionsAreReapedNotAccumulated) {
  ExperimentEngine engine(EngineOptions::with_workers(2));
  const std::string socket_path = stress_socket_path("reap");

  ServeSocketControl control;
  std::string server_error;
  bool server_ok = false;
  std::thread server([&engine, &socket_path, &control, &server_error,
                      &server_ok] {
    server_ok = serve_unix_socket(engine, socket_path, ServeOptions{},
                                  server_error, &control);
  });

  constexpr int kSequentialClients = 12;
  for (int i = 0; i < kSequentialClients; ++i) {
    const int fd = connect_with_retry(socket_path);
    ASSERT_GE(fd, 0) << "client " << i << " could not connect";
    ASSERT_TRUE(send_all(fd, std::string(kSingleSpec) + "\n"));
    (void)::shutdown(fd, SHUT_WR);
    (void)read_to_eof(fd);  // session complete: server closed the socket
    (void)::close(fd);
  }

  // Strictly sequential clients: when client i+1 is accepted, session i
  // has streamed its results and can lag only in its last few statements
  // (close + latch store), so the tracked count must stay near 1 — and
  // nowhere near one-per-client.
  EXPECT_LE(control.tracked_sessions(), 3u)
      << "finished session threads are accumulating instead of being reaped";

  control.request_stop();
  server.join();
  EXPECT_TRUE(server_ok) << server_error;
}

// Per-session accounting under the full concurrent workload: every
// session's atomics fold into the process-wide serve.* obs counters, and
// because dedup attribution flows through ExperimentEngine::SubmitOutcome
// (first submit computes, every racing duplicate reports kCacheHit) the
// totals are EXACT even with 8 sessions racing the shared cache — not
// a stats diff that could double-count.
TEST(ServeStress, ServeCountersAreExactUnderConcurrentSessions) {
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  {
    ExperimentEngine engine(EngineOptions::with_workers(4));
    std::vector<std::thread> clients;
    clients.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      clients.emplace_back([&engine] {
        std::istringstream in(session_input());
        std::ostringstream out;
        (void)serve_session(engine, in, out);
      });
    }
    for (std::thread& client : clients) client.join();
  }

  const auto sessions = static_cast<std::uint64_t>(kSessions);
  const std::uint64_t points = sessions * kPointsPerSession;
  const std::uint64_t unique = unique_config_count();
  EXPECT_EQ(obs::counter("serve.sessions").value(), sessions);
  EXPECT_EQ(obs::counter("serve.requests").value(), sessions * 2);
  EXPECT_EQ(obs::counter("serve.points").value(), points);
  EXPECT_EQ(obs::counter("serve.results").value(), points);
  EXPECT_EQ(obs::counter("serve.dedup_hits").value(), points - unique);
  EXPECT_EQ(obs::counter("serve.store_hits").value(), 0u);  // no store
  EXPECT_GT(obs::counter("serve.bytes_streamed").value(), 0u);
  // Every session unwound its RAII registration.
  EXPECT_EQ(obs::gauge("serve.active_sessions").value(), 0);
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}

// The sessions command: a session's own row carries its deterministic
// counters as of the command line — requests/points/dedup are counted
// synchronously in the reader, so after two spec lines the values are
// pinned (results stream asynchronously and are deliberately not
// asserted from the event).  Works with metrics OFF: per-session atomics
// are unconditional, only the process-wide mirrors gate on the switch.
TEST(ServeStress, SessionsCommandReportsOwnExactCounters) {
  ExperimentEngine engine(EngineOptions::with_workers(2));
  std::istringstream in(session_input() + "sessions\n");
  std::ostringstream out;
  const long requests = serve_session(engine, in, out);
  EXPECT_EQ(requests, 3);

  const analysis::JsonValue* row = nullptr;
  analysis::JsonValue event;
  std::istringstream lines(out.str());
  std::string line;
  std::size_t sessions_events = 0;
  while (std::getline(lines, line)) {
    const auto parsed = analysis::json_parse(line);
    ASSERT_TRUE(parsed.ok) << line;
    const analysis::JsonValue* type = parsed.value.find("type");
    if (type == nullptr || type->as_string() != "sessions") continue;
    ++sessions_events;
    event = parsed.value;
  }
  EXPECT_EQ(sessions_events, 1u);
  const analysis::JsonValue* listing = event.find("sessions");
  ASSERT_NE(listing, nullptr);
  ASSERT_TRUE(listing->is_array());
  ASSERT_EQ(listing->size(), 1u);  // exactly this session is live
  row = &listing->at(0);
  EXPECT_GE(row->find("id")->as_number(0), 1.0);
  EXPECT_GE(row->find("age_s")->as_number(-1.0), 0.0);
  // The sessions line itself is request 3; both spec lines were fully
  // handled (submission counting is synchronous) before it was read.
  EXPECT_EQ(row->find("requests")->as_number(0), 3.0);
  EXPECT_EQ(row->find("points")->as_number(0), 3.0);
  EXPECT_EQ(row->find("errors")->as_number(0), 0.0);
  // campaign(n64 computed, n96 computed) then single(n64) dedups: one hit.
  EXPECT_EQ(row->find("dedup_hits")->as_number(0), 1.0);
  EXPECT_EQ(row->find("store_hits")->as_number(0), 0.0);
}

// A stop requested before the server even binds must not hang: the
// listener is poisoned on attach and the first accept returns.
TEST(ServeStress, StopRequestedBeforeServeReturnsImmediately) {
  ExperimentEngine engine(EngineOptions::with_workers(1));
  const std::string socket_path = stress_socket_path("prestop");

  ServeSocketControl control;
  control.request_stop();
  EXPECT_TRUE(control.stop_requested());

  std::string error;
  EXPECT_TRUE(
      serve_unix_socket(engine, socket_path, ServeOptions{}, error, &control));
  EXPECT_FALSE(fs::exists(socket_path));
}

// --- event-driven streaming over an open connection -------------------------

/// Starts serve_unix_socket on its own thread; stop() unwinds it.
class SocketServer {
 public:
  SocketServer(ExperimentEngine& engine, const char* tag,
               const ServeOptions& options = {})
      : path_(stress_socket_path(tag)) {
    thread_ = std::thread([this, &engine, options] {
      ok_ = serve_unix_socket(engine, path_, options, error_, &control_);
    });
  }
  ~SocketServer() {
    if (thread_.joinable()) stop();
  }
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  void stop() {
    control_.request_stop();
    thread_.join();
    EXPECT_TRUE(ok_) << error_;
  }

 private:
  std::string path_;
  ServeSocketControl control_;
  std::string error_;
  bool ok_ = false;
  std::thread thread_;
};

/// Client connection closed on scope exit, so a failed assertion cannot
/// leave the server's session (and stop()) waiting on a silent client.
struct ClientFd {
  explicit ClientFd(const std::string& path) : fd(connect_with_retry(path)) {}
  ~ClientFd() {
    if (fd >= 0) (void)::close(fd);
  }
  ClientFd(const ClientFd&) = delete;
  ClientFd& operator=(const ClientFd&) = delete;
  int fd;
};

/// Deadline for one awaited event batch on an open connection.
constexpr std::int64_t kEventDeadlineNs = 60'000'000'000;

/// Reads from `fd` into `output` until it holds `count` events of `type`,
/// without closing or half-closing the connection.  False when the
/// deadline passes first (the streamer slept through a completion) or the
/// server hangs up.
bool read_until_events(int fd, std::string& output, const std::string& type,
                       std::size_t count) {
  const std::int64_t deadline = obs::now_ns() + kEventDeadlineNs;
  char buffer[4096];
  while (count_events(output, type) < count) {
    const std::int64_t left_ms = (deadline - obs::now_ns()) / 1'000'000;
    if (left_ms <= 0) return false;
    pollfd waiting{fd, POLLIN, 0};
    if (::poll(&waiting, 1, static_cast<int>(left_ms)) <= 0) return false;
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) return false;
    output.append(buffer, static_cast<std::size_t>(n));
  }
  return true;
}

// A client that sends a request and then neither writes nor half-closes:
// its reader stays parked in read(2), so only the completion callbacks
// can wake the streamer.  A freshly computed campaign's done and a dag's
// node events and done must each arrive within the deadline.
TEST(ServeStress, CompletionsReachAClientThatKeepsItsConnectionOpen) {
  ExperimentEngine engine(EngineOptions::with_workers(2));
  SocketServer server(engine, "open");
  const ClientFd client(server.path());
  const int fd = client.fd;
  ASSERT_GE(fd, 0);

  std::string output;
  ASSERT_TRUE(send_all(fd, std::string(kCampaignSpec) + "\n"));
  ASSERT_TRUE(read_until_events(fd, output, "done", 1))
      << "campaign done never arrived on the open connection:\n"
      << output;
  EXPECT_EQ(count_events(output, "result"), 2u);
  EXPECT_EQ(engine.stats().jobs_computed, 2u);  // computed, not cached

  const std::string dag =
      R"json({"scenario": "dag", "name": "open_connection", "nodes": [)json"
      R"json({"name": "fp16", "run": {"scenario": "static", "experiment":)json"
      R"json( {"gpu": "a100", "dtype": "fp16", "n": 64, "seeds": 1,)json"
      R"json( "base_seed": 5, "pattern": "gaussian(sigma=210)",)json"
      R"json( "sampling": {"tiles": 4, "k_fraction": 0.5}}}},)json"
      R"json( {"name": "int8", "run": {"scenario": "static", "experiment":)json"
      R"json( {"gpu": "a100", "dtype": "int8", "n": 64, "seeds": 1,)json"
      R"json( "base_seed": 5, "pattern": "gaussian(sigma=210)",)json"
      R"json( "sampling": {"tiles": 4, "k_fraction": 0.5}}}}]})json";
  ASSERT_TRUE(send_all(fd, dag + "\n"));
  ASSERT_TRUE(read_until_events(fd, output, "done", 2))
      << "dag events never arrived on the open connection:\n"
      << output;
  EXPECT_EQ(count_events(output, "node"), 2u);
  EXPECT_EQ(count_events(output, "error"), 0u);

  (void)::shutdown(fd, SHUT_WR);
  output += read_to_eof(fd);
  server.stop();
  EXPECT_EQ(count_events(output, "done"), 2u);
}

// A full_results fleet event is larger than the socket stream's write
// buffer: it must still arrive byte-identical to the same session over
// plain streams.
TEST(ServeStress, EventsLargerThanTheWriteBufferArriveByteExact) {
  const std::string fleet =
      R"json({"scenario": "fleet", "experiment": {"gpu": "a100",)json"
      R"json( "dtype": "fp16", "n": 64, "seeds": 1,)json"
      R"json( "pattern": "gaussian(sigma=210)",)json"
      R"json( "sampling": {"tiles": 4, "k_fraction": 0.5}},)json"
      R"json( "timelines": ["burst(period=0.2, duty=30%, high=100%,)json"
      R"json( low=5%, dur=2)"], "devices": [{"gpu": "a100",)json"
      R"json( "governor": "utilization(up=80%, down=30%)"}],)json"
      R"json( "cap_w": 300, "slice_s": 0.01, "pstates": 5})json";
  ExperimentEngine engine(EngineOptions::with_workers(2));
  ServeOptions options;
  options.full_results = true;

  SocketServer server(engine, "large", options);
  const ClientFd client(server.path());
  const int fd = client.fd;
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, fleet + "\n"));
  (void)::shutdown(fd, SHUT_WR);
  const std::string over_socket = read_to_eof(fd);
  server.stop();

  std::istringstream in(fleet + "\n");
  std::ostringstream out;
  (void)serve_session(engine, in, out, options);
  const std::string over_stream = out.str();

  EXPECT_EQ(over_socket, over_stream);
  std::size_t longest = 0;
  std::istringstream lines(over_stream);
  for (std::string line; std::getline(lines, line);) {
    longest = std::max(longest, line.size());
  }
  EXPECT_GT(longest, std::size_t{16384}) << "fixture no longer exceeds the "
                                            "socket write buffer";
}

// A 2 MiB line is discarded with one error event that names the limit; the
// valid spec after it is served as request 2.
TEST(ServeStress, OverlongRequestLineIsAnErrorAndTheSessionContinues) {
  ExperimentEngine engine(EngineOptions::with_workers(2));
  SocketServer server(engine, "overlong");
  const ClientFd client(server.path());
  const int fd = client.fd;
  ASSERT_GE(fd, 0);
  const std::string overlong(std::size_t{2} << 20, 'x');
  ASSERT_TRUE(send_all(fd, overlong + "\n" + kSingleSpec + "\n"));
  (void)::shutdown(fd, SHUT_WR);
  const std::string output = read_to_eof(fd);
  server.stop();

  std::vector<analysis::JsonValue> events;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    const auto parsed = analysis::json_parse(line);
    ASSERT_TRUE(parsed.ok) << line;
    events.push_back(parsed.value);
  }
  ASSERT_EQ(events.size(), 4u) << output;
  const char* const expected[] = {"error", "accepted", "result", "done"};
  const double expected_req[] = {1, 2, 2, 2};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].find("type")->as_string(), expected[i]) << i;
    EXPECT_EQ(events[i].find("req")->as_number(0), expected_req[i]) << i;
  }
  EXPECT_NE(events[0].find("error")->as_string().find("1048576"),
            std::string::npos)
      << output;
}

}  // namespace
}  // namespace gpupower::core
