// Serving front end: the replica request handler on top of the shared
// LineListener socket machinery (serve/listener.hpp).
//
// The wire protocol is newline-delimited JSON — one request object per line,
// one response object per line, over a Unix-domain or TCP socket. Verbs
// (the op chain of Server::handle_request, which tools/check_docs.sh reads):
//
//   {"op":"load","name":"era5","path":"/models/era5.ckpt"}
//   {"op":"load","name":"era5"}                  // resolve from --store
//   {"op":"unload","name":"era5"}
//   {"op":"predict","model":"era5","points":[[x,y],[x,y,t],...],
//    "variance":true,"deadline_ms":250,"request_id":"r-17"}
//   {"op":"stats"}
//   {"op":"health"}
//   {"op":"metrics"}
//   {"op":"flight"}    // flight-recorder JSONL snapshot (fleet post-mortems)
//   {"op":"drain"}
//
// Every response carries "ok"; failures add "error". handle_line() is the
// whole protocol — the daemon's connection threads and the in-process tests
// both drive it, so the socket layer stays a thin framing loop.
//
// "drain" starts a graceful shutdown on a background thread and answers
// immediately: the listener stops accepting, in-flight requests finish and
// flush their responses (SHUT_RD, never SHUT_RDWR, on connection sockets),
// and the engine completes everything already queued. Zero requests are
// dropped. A fleet router drains replicas this way to hot-swap them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "serve/engine.hpp"
#include "serve/listener.hpp"
#include "serve/registry.hpp"
#include "serve/wire.hpp"

namespace gsx::serve {

struct ServerConfig {
  std::string unix_path;              ///< Unix-domain socket path ("" = use TCP)
  std::uint16_t tcp_port = 0;         ///< TCP port on 127.0.0.1 (0 = ephemeral)
  std::size_t workers = 1;            ///< solver threads per batch
  std::size_t queue_capacity = 256;   ///< engine admission bound
  std::size_t max_batch_points = 8192;
  std::size_t cache_bytes = std::size_t{1} << 30;  ///< factor-cache capacity
  double default_deadline_seconds = 30.0;  ///< applied when a request sends none
  int metrics_port = -1;  ///< Prometheus HTTP scrape port on 127.0.0.1
                          ///< (-1 = off, 0 = ephemeral); started by listen()
  std::string store_dir;  ///< shared checkpoint store; "" disables store
                          ///< resolution ("load" then requires "path")
};

/// Request handler + listener. Construct, optionally pre-load models through
/// registry(), then listen()/serve_forever(); or skip the socket entirely and
/// call handle_line() directly (tests, embedding).
class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handle one request line, return one response line (no trailing '\n').
  /// Never throws: protocol and engine errors become {"ok":false,...}.
  std::string handle_line(const std::string& line);

  /// Bind + listen on the configured socket. Returns the bound TCP port
  /// (useful with tcp_port = 0), or 0 for Unix sockets.
  std::uint16_t listen();

  /// Accept loop; returns after shutdown() (or a fatal accept error).
  void serve_forever();

  /// Graceful drain: stop accepting, finish in-flight requests (responses
  /// still flush), complete queued predictions, join connection threads.
  /// Safe from a signal-watcher thread; idempotent.
  void shutdown();

  [[nodiscard]] bool running() const { return listener_.running(); }

  /// True once a "drain" verb (or shutdown()) was seen; health reports
  /// "draining" from that point on.
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Bound port of the Prometheus scrape listener (0 until listen() starts
  /// it, or when cfg.metrics_port is -1).
  [[nodiscard]] std::uint16_t metrics_port() const {
    return listener_.metrics_port();
  }

  /// Hook invoked (once) when the "drain" verb arrives, instead of the
  /// default in-process shutdown(). The daemon wires this to its signal
  /// pipe so a wire-initiated drain and a SIGTERM share one exit path.
  void set_on_drain(std::function<void()> hook) { on_drain_ = std::move(hook); }

  ModelRegistry& registry() { return registry_; }
  KrigingEngine& engine() { return engine_; }

 private:
  std::string handle_request(const JsonValue& req);
  std::string do_load(const JsonValue& req);
  std::string do_unload(const JsonValue& req);
  std::string do_predict(const JsonValue& req);
  std::string do_stats();
  std::string do_health();
  std::string do_metrics();
  std::string do_flight();
  std::string do_drain();

  const ServerConfig cfg_;
  ModelRegistry registry_;
  KrigingEngine engine_;
  LineListener listener_;

  std::function<void()> on_drain_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_started_{false};
  std::thread drain_thread_;
};

}  // namespace gsx::serve
