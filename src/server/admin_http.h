// AdminHttpServer: a minimal embedded HTTP/1.1 endpoint exposing the
// server's telemetry for scraping and debugging.
//
// URL map (all GET, all `Connection: close`):
//   /healthz          liveness probe: JSON with catalog epoch and per-shard
//                     entry counts (so a stuck shard is observable)
//   /metrics          Prometheus exposition text of the server registry
//   /metrics.json     the same registry as JSON
//   /statements?top=N per-statement aggregates, JSON, ordered by total time
//                     (default top=20; top=0 = all)
//   /slow             slow-query captures (normalized SQL, bound params,
//                     EXPLAIN ANALYZE plan), JSON, newest first
//   /traces           every-Nth trace samples from the same ring
//
// Deliberately not a framework: one blocking accept loop on a dedicated
// thread, one request per connection, loopback by default. The handlers
// call only lock-free snapshot/render paths, so a scrape never contends
// with matching. Shutdown is a self-pipe write that wakes the poll(); the
// destructor joins the thread.
//
// The endpoint is render-agnostic: it serves a Handlers bundle of
// std::functions, so both PolicyServer and the sharded serving tier mount
// the same URL map over their own telemetry.

#ifndef P3PDB_SERVER_ADMIN_HTTP_H_
#define P3PDB_SERVER_ADMIN_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/result.h"

namespace p3pdb::server {

class AdminHttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";  // loopback unless explicitly widened
    uint16_t port = 0;               // 0 = ephemeral (read back via port())
  };

  /// Response providers for each route; a null function 404s its route.
  /// Every function must be safe to call from the accept thread for the
  /// server's whole lifetime.
  struct Handlers {
    std::function<std::string()> healthz_json;
    std::function<std::string()> metrics_text;
    std::function<std::string()> metrics_json;
    std::function<std::string(size_t top)> statements_json;
    std::function<std::string()> slow_json;
    std::function<std::string()> traces_json;
  };

  /// Binds, listens, and starts the accept thread. Fails (rather than
  /// crashing later) when the address cannot be bound.
  static Result<std::unique_ptr<AdminHttpServer>> Start(Handlers handlers,
                                                        Options options);

  ~AdminHttpServer();
  AdminHttpServer(const AdminHttpServer&) = delete;
  AdminHttpServer& operator=(const AdminHttpServer&) = delete;

  /// Stops accepting, wakes the loop, joins the thread, closes the socket.
  /// Idempotent.
  void Stop();

  /// The bound port (the actual one when Options::port was 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Requests fully served since start (for tests).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  AdminHttpServer(Handlers handlers, Options options);

  Status Bind();
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Routes one request to its response body; fills `content_type` and
  /// `status` (200/404/405).
  std::string Route(std::string_view method, std::string_view target,
                    std::string* content_type, int* status);

  const Handlers handlers_;
  Options options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: write end wakes the poll()
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> requests_served_{0};
};

}  // namespace p3pdb::server

#endif  // P3PDB_SERVER_ADMIN_HTTP_H_
