#ifndef BIGDANSING_OBS_HTTP_SERVER_H_
#define BIGDANSING_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace bigdansing {

/// One dispatched observability response (status line + body), separated
/// from socket handling so tests exercise every endpoint without a port.
struct ObsResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Embedded, dependency-free observability endpoint: a blocking accept
/// loop on one dedicated thread serving read-only snapshots of the live
/// telemetry plane over HTTP/1.1 (connection-per-request, loopback use).
/// Started by InitObservabilityFromEnv (obs/bootstrap.h); intended for
/// operators watching a long-running cleanse — every handler is a
/// consistent snapshot, never a mutation.
///
/// Endpoints:
///   /healthz   liveness + uptime + plane status            (JSON)
///   /metrics   MetricsRegistry Prometheus text exposition  (text)
///   /stages    live per-context StageReports incl. in-flight stages (JSON)
///   /explain   runtime EXPLAIN tree rendered from open spans (JSON)
///   /profilez  sampling-profiler folded stacks (flamegraph input, text)
///   /quality   QualityRecorder run history + convergence + drift (JSON)
///   /streams   live + recently closed StreamSession counters (JSON)
///   /profile   latest Clean() input-table column profile    (JSON)
class ObsServer {
 public:
  static ObsServer& Instance();

  /// Binds 0.0.0.0:`port` (0 = ephemeral) and starts the accept thread.
  /// Idempotent while running; returns false when the socket cannot be
  /// bound. The bound port is readable via port().
  bool Start(uint16_t port);

  /// Closes the listen socket and joins the accept thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Routes one request path (query strings ignored) to its endpoint.
  /// The pure core of the server, used directly by tests.
  static ObsResponse Dispatch(const std::string& path);

 private:
  ObsServer() = default;

  void AcceptLoop();
  void HandleConnection(int fd);

  std::mutex control_mu_;
  std::thread server_thread_;
  // Atomic: AcceptLoop reads it without the control mutex while Stop()
  // shuts it down from another thread.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
};

}  // namespace bigdansing

#endif  // BIGDANSING_OBS_HTTP_SERVER_H_
