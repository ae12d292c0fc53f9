// Shared socket machinery for the NDJSON daemons (gsx_serve, gsx_router).
//
// LineListener owns the accept loop, per-connection threads, newline framing
// and the optional Prometheus HTTP scrape listener; the protocol itself is a
// single handler callback (one request line in, one response line out). The
// replica server and the fleet router both sit on top of this, so framing,
// drain semantics and scrape plumbing exist exactly once.
//
// WireClient is the matching client side: dial a TCP or Unix endpoint, send
// one line, read one line. The router's forwarding pool, the replica's
// announcer thread and the tests all use it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace gsx::serve {

class LineListener {
 public:
  struct Config {
    std::string unix_path;       ///< Unix-domain socket path ("" = use TCP)
    std::uint16_t tcp_port = 0;  ///< TCP port on 127.0.0.1 (0 = ephemeral)
    int metrics_port = -1;       ///< Prometheus HTTP scrape port on 127.0.0.1
                                 ///< (-1 = off, 0 = ephemeral)
    std::string log_tag = "serve";  ///< obs logging module tag
    /// Exposition body served on the scrape port. Defaults to the local
    /// registry (obs::render_prometheus); the fleet router overrides it
    /// with the federated union so one scrape target covers the fleet.
    /// Called from the metrics thread — must be thread-safe.
    std::function<std::string()> metrics_renderer;
  };

  /// Handle one request line, return one response line (no trailing '\n').
  /// Called from connection threads; must be thread-safe and never throw.
  using Handler = std::function<std::string(const std::string&)>;

  LineListener(Config cfg, Handler handler);
  ~LineListener();

  LineListener(const LineListener&) = delete;
  LineListener& operator=(const LineListener&) = delete;

  /// Bind + listen on the configured socket; also starts the metrics scrape
  /// listener when configured. Returns the bound TCP port (useful with
  /// tcp_port = 0), or 0 for Unix sockets.
  std::uint16_t listen();

  /// Accept loop; returns after shutdown() (or a fatal accept error).
  void serve_forever();

  /// Graceful drain: stop accepting, wake connection threads blocked in
  /// read() (SHUT_RD — a thread mid-request still flushes its response),
  /// join them. Thread-safe and idempotent; callable from a handler-spawned
  /// thread or a signal-watcher thread.
  void shutdown();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Bound port of the Prometheus scrape listener (0 until listen() starts
  /// it, or when cfg.metrics_port is -1).
  [[nodiscard]] std::uint16_t metrics_port() const { return metrics_port_; }

 private:
  void start_metrics_listener();
  void metrics_loop();
  void connection_loop(int fd);
  void reap_finished_locked();

  const Config cfg_;
  const Handler handler_;

  // Atomic: shutdown() stores -1 from a watcher/handler thread while the
  // accept loops read the fd (tsan-visible race on a plain int).
  std::atomic<int> listen_fd_{-1};
  std::atomic<int> metrics_fd_{-1};
  std::uint16_t metrics_port_ = 0;
  std::thread metrics_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;  ///< serializes concurrent shutdown() callers
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::set<int> conn_fds_;
  std::set<std::thread::id> finished_ids_;
};

/// Blocking one-line-per-request client over TCP (host:port) or a Unix
/// socket path. Not thread-safe; callers serialize access per instance.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();

  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&& other) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connect to 127.0.0.1:port (host is kept for error text only).
  /// Returns false on failure (errno preserved).
  bool dial_tcp(const std::string& host, std::uint16_t port);

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  /// Send `line` (newline appended) and read one response line. Returns
  /// false — and closes the connection — on any I/O failure or EOF.
  bool request(const std::string& line, std::string* response);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes past the last consumed newline
};

/// write() the whole buffer, tolerating short writes and EINTR.
bool write_all(int fd, const char* data, std::size_t size);

}  // namespace gsx::serve
