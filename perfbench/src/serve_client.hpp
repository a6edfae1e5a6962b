// serve_warm's two halves: a `serve_unix_socket` server on a background
// thread of the benchmark process, and closed-loop clients that each hold
// one long-lived connection, send a seeded-random request line after the
// previous one's `done` event, and check every result event.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/store/serve.hpp"

namespace perfbench {

/// One request line and what its result events must carry: point label ->
/// compact dump of the event's "metrics" object.
struct ServeRequest {
  std::string line;
  std::map<std::string, std::string> metrics;
};

struct ClientResult {
  std::vector<double> latency_ms;   ///< write -> done, in send order
  std::vector<std::int64_t> done_ns;  ///< when each done event was read
  std::vector<std::size_t> done_points;  ///< result events of that request
  std::vector<std::size_t> session_starts;  ///< latency_ms index per session
  std::vector<double> accepted_ms;  ///< write -> accepted
  long requests = 0;                ///< request lines sent
  long failed = 0;  ///< error events, wrong or missing results, lost link
  long points = 0;  ///< result events received
  std::uint64_t bytes = 0;  ///< event bytes read
  std::string first_problem;
};

/// Runs one closed-loop client.  Sends requests picked by a stream seeded
/// with `seed` until `deadline_ns` (core::obs::now_ns time; 0 = none) or
/// `max_requests` (0 = none), opening a fresh connection (a new serve
/// session) every `session_requests` requests (0 = one connection).
[[nodiscard]] ClientResult run_serve_client(
    const std::string& socket_path, const std::vector<ServeRequest>& requests,
    std::uint64_t seed, std::int64_t deadline_ns, long max_requests,
    long session_requests);

/// serve_unix_socket on its own thread; stopped and joined on destruction.
class ServeServer {
 public:
  ServeServer(gpupower::core::ExperimentEngine& engine, std::string path);
  ~ServeServer();
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Blocks until a client can connect (a probe connection), up to
  /// `timeout_s`; false if the server never came up.
  [[nodiscard]] bool wait_ready(double timeout_s) const;
  /// Stops accepting, lets live sessions finish, joins.  False with the
  /// server's error when it did not stop cleanly.
  bool stop(std::string& error);

 private:
  std::string path_;
  gpupower::core::ServeSocketControl control_;
  std::string error_;
  bool clean_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace perfbench
