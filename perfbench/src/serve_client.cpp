#include "serve_client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <set>
#include <string_view>

#include "analysis/json.hpp"
#include "common.hpp"
#include "patterns/rng.hpp"

namespace perfbench {
namespace {

using gpupower::analysis::JsonValue;
using gpupower::core::obs::now_ns;

/// A connected Unix-socket client; closes the fd on destruction.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

  bool send_line(std::string_view line) {
    std::string data(line);
    data += '\n';
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + sent, data.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next newline-terminated line (without the newline); false on EOF.
  bool read_line(std::string& line, std::uint64_t& bytes) {
    for (;;) {
      const std::size_t newline = buffer_.find('\n', scan_from_);
      if (newline != std::string::npos) {
        line.assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        scan_from_ = 0;
        bytes += line.size() + 1;
        return true;
      }
      scan_from_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scan_from_ = 0;
};

/// Sends one request and consumes its events through `done` or `error`.
/// Returns false when the request failed; `alive` turns false when the
/// connection is gone.
bool exchange(Connection& connection, const ServeRequest& request, long req,
              ClientResult& out, bool& alive) {
  const auto fail = [&out](std::string problem) {
    if (out.first_problem.empty()) out.first_problem = std::move(problem);
    return false;
  };
  const std::int64_t start = now_ns();
  if (!connection.send_line(request.line)) {
    alive = false;
    return fail("write to serve socket failed");
  }
  std::set<std::string> seen;
  bool ok = true;
  std::string line;
  for (;;) {
    if (!connection.read_line(line, out.bytes)) {
      alive = false;
      return fail("serve closed the connection mid-request");
    }
    const gpupower::analysis::JsonParseResult parsed =
        gpupower::analysis::json_parse(line);
    const JsonValue* type = parsed.ok ? parsed.value.find("type") : nullptr;
    const JsonValue* req_id = parsed.ok ? parsed.value.find("req") : nullptr;
    if (type == nullptr || !type->is_string() || req_id == nullptr ||
        static_cast<long>(req_id->as_number()) != req) {
      ok = fail("unexpected event: " + line.substr(0, 200));
      continue;
    }
    const std::string& kind = type->as_string();
    if (kind == "accepted") {
      out.accepted_ms.push_back(ms_since(start));
    } else if (kind == "result") {
      ++out.points;
      const JsonValue* label = parsed.value.find("point");
      const JsonValue* metrics = parsed.value.find("metrics");
      const std::string name =
          label != nullptr && label->is_string() ? label->as_string() : "";
      const auto expected = request.metrics.find(name);
      if (expected == request.metrics.end() || metrics == nullptr ||
          metrics->dump() != expected->second || !seen.insert(name).second) {
        ok = fail("result event differs from the expected outputs: " +
                  line.substr(0, 200));
      }
    } else if (kind == "done") {
      out.latency_ms.push_back(ms_since(start));
      out.done_ns.push_back(now_ns());
      out.done_points.push_back(seen.size());
      if (seen.size() != request.metrics.size()) {
        ok = fail("done after " + std::to_string(seen.size()) + " of " +
                  std::to_string(request.metrics.size()) + " results");
      }
      return ok;
    } else if (kind == "error") {
      return fail("error event: " + line.substr(0, 200));
    }
  }
}

}  // namespace

ClientResult run_serve_client(const std::string& socket_path,
                              const std::vector<ServeRequest>& requests,
                              std::uint64_t seed, std::int64_t deadline_ns,
                              long max_requests, long session_requests) {
  ClientResult out;
  gpupower::patterns::Xoshiro256 rng(seed);
  const auto more = [&] {
    return (max_requests == 0 || out.requests < max_requests) &&
           (deadline_ns == 0 || now_ns() < deadline_ns);
  };
  while (more()) {
    Connection connection(socket_path);
    if (!connection.ok()) {
      ++out.requests;
      ++out.failed;
      out.first_problem = "cannot connect to " + socket_path;
      break;
    }
    out.session_starts.push_back(out.latency_ms.size());
    bool alive = true;
    for (long req = 1; alive && more() &&
                       (session_requests == 0 || req <= session_requests);
         ++req) {
      const ServeRequest& request = requests[static_cast<std::size_t>(
          rng.uniform_below(requests.size()))];
      ++out.requests;
      if (!exchange(connection, request, req, out, alive)) ++out.failed;
    }
    if (!alive) break;
  }
  return out;
}

ServeServer::ServeServer(gpupower::core::ExperimentEngine& engine,
                         std::string path)
    : path_(std::move(path)) {
  thread_ = std::thread([this, &engine] {
    clean_ = gpupower::core::serve_unix_socket(
        engine, path_, gpupower::core::ServeOptions{}, error_, &control_);
  });
}

ServeServer::~ServeServer() {
  std::string ignored;
  (void)stop(ignored);
}

bool ServeServer::wait_ready(double timeout_s) const {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    if (Connection(path_).ok()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return false;
}

bool ServeServer::stop(std::string& error) {
  if (stopped_) return clean_;
  stopped_ = true;
  control_.request_stop();
  thread_.join();
  if (!clean_) error = error_.empty() ? "serve did not stop cleanly" : error_;
  return clean_;
}

}  // namespace perfbench
