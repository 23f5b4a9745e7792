#include "obs/http_server.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#ifndef _WIN32
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#include "common/json_writer.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "obs/profiler.h"
#include "obs/quality.h"
#include "obs/stage_directory.h"
#include "obs/stream_stats.h"

namespace bigdansing {

namespace {

/// Steady-clock seconds since the server started (0 before Start).
std::atomic<double>& StartEpoch() {
  static std::atomic<double> epoch{0.0};
  return epoch;
}

double SteadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

}  // namespace

ObsServer& ObsServer::Instance() {
  static ObsServer* instance = new ObsServer();  // Leaked: safe at exit.
  return *instance;
}

ObsResponse ObsServer::Dispatch(const std::string& raw_path) {
  MetricsRegistry::Instance().GetCounter("obs.requests").Add(1);
  // Query strings are accepted and ignored: every endpoint is a snapshot.
  const std::string path = raw_path.substr(0, raw_path.find('?'));

  ObsResponse resp;
  if (path == "/healthz" || path == "/") {
    const double epoch = StartEpoch().load(std::memory_order_acquire);
    JsonObjectBuilder body;
    body.Add("status", "ok");
    body.Add("uptime_seconds",
             epoch > 0.0 ? SteadyNowSeconds() - epoch : 0.0);
    body.Add("profiler_running", Profiler::Instance().running());
    body.Add("trace_enabled", TraceRecorder::Instance().enabled());
    body.Add("live_contexts",
             static_cast<uint64_t>(StageDirectory::Instance().LiveCount()));
    resp.body = body.Build();
    return resp;
  }
  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = MetricsRegistry::Instance().ToPrometheusText();
    return resp;
  }
  if (path == "/stages") {
    resp.body = StageDirectory::Instance().StagesJson();
    return resp;
  }
  if (path == "/explain") {
    TraceRecorder& recorder = TraceRecorder::Instance();
    JsonObjectBuilder body;
    body.Add("enabled", recorder.enabled());
    body.Add("spans", static_cast<uint64_t>(recorder.SpanCount()));
    body.Add("explain", recorder.ExplainTree());
    resp.body = body.Build();
    return resp;
  }
  if (path == "/quality") {
    resp.body = QualityRecorder::Instance().SnapshotJson();
    return resp;
  }
  if (path == "/streams") {
    resp.body = StreamDirectory::Instance().StreamsJson();
    return resp;
  }
  if (path == "/profile") {
    resp.body = QualityRecorder::Instance().LatestProfileJson();
    return resp;
  }
  if (path == "/profilez") {
    Profiler& profiler = Profiler::Instance();
    resp.content_type = "text/plain";
    resp.body = "# sampling profiler: running=" +
                std::string(profiler.running() ? "true" : "false") +
                " total_samples=" + std::to_string(profiler.TotalSamples()) +
                "\n" + profiler.FoldedStacks();
    return resp;
  }

  resp.status = 404;
  JsonObjectBuilder body;
  body.Add("error", "not found");
  body.Add("path", path);
  resp.body = body.Build();
  return resp;
}

bool ObsServer::Start(uint16_t port) {
#ifdef _WIN32
  (void)port;
  return false;
#else
  std::lock_guard<std::mutex> lock(control_mu_);
  if (running_.load(std::memory_order_acquire)) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    BD_LOG(Warning) << "obs server: socket() failed: "
                    << std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    BD_LOG(Warning) << "obs server: cannot bind port " << port << ": "
                    << std::strerror(errno);
    ::close(fd);
    return false;
  }

  // Recover the bound port (meaningful when port == 0 picked an ephemeral
  // one, e.g. in tests).
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  uint16_t actual = port;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    actual = ntohs(bound.sin_port);
  }

  listen_fd_.store(fd, std::memory_order_release);
  port_.store(actual, std::memory_order_release);
  StartEpoch().store(SteadyNowSeconds(), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  server_thread_ = std::thread([this] { AcceptLoop(); });
  MetricsRegistry::Instance().GetGauge("obs.server_running").Set(1);
  BD_LOG(Info) << "obs server listening on port " << actual;
  return true;
#endif
}

void ObsServer::Stop() {
#ifndef _WIN32
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (!running_.load(std::memory_order_acquire)) return;
    running_.store(false, std::memory_order_release);
    // shutdown() wakes a blocking accept(); close alone may not on Linux.
    const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
    to_join = std::move(server_thread_);
  }
  if (to_join.joinable()) to_join.join();
  port_.store(0, std::memory_order_release);
  MetricsRegistry::Instance().GetGauge("obs.server_running").Set(0);
#endif
}

void ObsServer::AcceptLoop() {
#ifndef _WIN32
  while (running_.load(std::memory_order_acquire)) {
    const int fd = listen_fd_.load(std::memory_order_acquire);
    if (fd < 0) return;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down (EBADF/EINVAL) or it broke; exit.
      return;
    }
    HandleConnection(conn);
  }
#endif
}

void ObsServer::HandleConnection(int fd) {
#ifndef _WIN32
  // Bound the read so a stalled client cannot wedge the accept loop.
  timeval timeout;
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[1024];
  // Headers only (no request bodies served here); 8 KiB cap.
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }

  // Parse "<METHOD> <path> HTTP/1.x".
  ObsResponse resp;
  const size_t method_end = request.find(' ');
  const size_t path_end = request.find(' ', method_end + 1);
  if (method_end == std::string::npos || path_end == std::string::npos) {
    resp.status = 405;
    resp.body = "{\"error\":\"bad request\"}";
  } else {
    const std::string method = request.substr(0, method_end);
    const std::string path =
        request.substr(method_end + 1, path_end - method_end - 1);
    if (method != "GET" && method != "HEAD") {
      resp.status = 405;
      resp.body = "{\"error\":\"method not allowed\"}";
    } else {
      resp = Dispatch(path);
      if (method == "HEAD") resp.body.clear();
    }
  }

  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    StatusText(resp.status) +
                    "\r\nContent-Type: " + resp.content_type +
                    "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                    "\r\nConnection: close\r\n\r\n" + resp.body;
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::close(fd);
#else
  (void)fd;
#endif
}

}  // namespace bigdansing
