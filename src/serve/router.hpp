// Fleet router: one NDJSON front door that consistent-hashes model names
// across a fleet of gsx_serve replicas.
//
// The router speaks the same newline-delimited JSON wire as the replicas
// (the verbs are the op chain of Router::handle_request, which
// tools/check_docs.sh reads):
//
//   replica-facing (the Announcer sends these):
//     {"op":"register","replica":"r0","host":"127.0.0.1","port":9101}
//     {"op":"heartbeat","replica":"r0","queue_depth":2}
//     {"op":"drain","replica":"r0"}            // operator: drain one replica
//     {"op":"drain","replica":"r0","goodbye":true}  // replica: I'm leaving
//
//   client-facing (forwarded to the owning replica):
//     {"op":"load","name":"era5","path":"era5.ckpt"}   // path optional
//     {"op":"unload","name":"era5"}
//     {"op":"predict","model":"era5","points":[...]}
//
//   local:
//     {"op":"stats"}   — replica table, placements, forward counters
//     {"op":"health"}  — alive replica count
//     {"op":"metrics"} — router-local Prometheus text
//     {"op":"fleet_metrics"}  — federated Prometheus text: every routable
//                               replica scraped over the wire, samples
//                               re-labeled replica="<name>", merged with the
//                               router's own series plus fleet rollups (this
//                               union is also what --metrics-port serves)
//     {"op":"flight_collect","dir":"/tmp/pm"}  — dump every replica's flight
//                               recorder (plus the router's own) into
//                               <dir>/flight-<name>.jsonl for gsx_obs merge
//     {"op":"drain"}   — no "replica": drain the router itself
//
// Placement is Membership's consistent-hash ring, so it depends only on the
// set of routable replica names. Forwards reuse connections: the router keeps
// each replica's idle connections, a forward takes one (or dials when none is
// idle) and puts it back after a complete round trip, so a steady fleet pays
// no TCP handshake per request. Each connection carries one request at a
// time, because a replica answers a connection's lines in order. A request
// that fails on a pooled connection (the replica restarted, drained or closed
// it) is retried once on a fresh dial; only a failure on a fresh dial is the
// failure detector. It marks the owner Dead — one rehash event — and the
// request retries on the new owner; if the new owner answers "no such
// model", the router replays the remembered load spec there first, so
// failover is invisible to clients beyond latency. The router mints the
// request id when the client didn't, and forwards it on the second hop, so
// one id traces both hops in the flight recorder.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/listener.hpp"
#include "serve/membership.hpp"
#include "serve/wire.hpp"

namespace gsx::serve {

struct RouterConfig {
  std::uint16_t tcp_port = 0;   ///< client + replica port on 127.0.0.1
  int metrics_port = -1;        ///< Prometheus HTTP scrape port (-1 = off)
  double stale_after_seconds = 10.0;  ///< heartbeat age that kills a replica
  std::size_t virtual_nodes = 64;     ///< ring points per replica
  double sweep_seconds = 1.0;   ///< stale-heartbeat sweep cadence
  std::size_t max_forward_attempts = 3;  ///< owner + failover retries
  double slo_forward_seconds = 1.0;  ///< forward latency SLO; slower forwards
                                     ///< burn router.slo.violations
};

class Router {
 public:
  explicit Router(RouterConfig cfg);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Handle one request line, return one response line (no trailing '\n').
  /// Never throws. Tests drive this directly, like Server::handle_line.
  std::string handle_line(const std::string& line);

  /// Bind + listen; starts the stale-heartbeat sweeper. Returns the bound
  /// TCP port (useful with tcp_port = 0).
  std::uint16_t listen();

  void serve_forever();
  void shutdown();

  [[nodiscard]] bool running() const { return listener_.running(); }
  [[nodiscard]] std::uint16_t metrics_port() const {
    return listener_.metrics_port();
  }

  Membership& membership() { return membership_; }

 private:
  std::string handle_request(const JsonValue& req);
  std::string do_register(const JsonValue& req);
  std::string do_heartbeat(const JsonValue& req);
  std::string do_drain(const JsonValue& req);
  std::string do_forward_by_name(const JsonValue& req, const std::string& op);
  std::string do_predict(const JsonValue& req);
  std::string do_stats();
  std::string do_health();
  std::string do_metrics();
  std::string do_fleet_metrics();
  std::string do_flight_collect(const JsonValue& req);

  /// The federated exposition: scrape every routable replica's metrics over
  /// the wire, re-label with replica="<name>", merge with the router's own
  /// registry, and refresh the fleet rollup gauges (aggregate predict rate,
  /// max queue depth, total in-flight, per-replica p999). Serves both the
  /// fleet_metrics verb and the HTTP scrape port.
  std::string federated_prometheus();

  /// One hop: send `line` to `replica` and read one line, on an idle pooled
  /// connection or, when none is idle, a fresh dial. A pooled connection
  /// that fails may only be stale, so the request is retried once on a
  /// fresh dial. False when a fresh dial or its round trip fails (the caller
  /// marks the replica dead and rehashes).
  bool forward(const ReplicaInfo& replica, const std::string& line,
               std::string* response);

  /// Close `replica`'s idle connections. One that a forward still held
  /// goes back to the pool afterwards; the sweeper closes it on its next
  /// pass, as it does for every replica that is not Alive.
  void close_idle(const std::string& replica);

  /// Mark `replica` Dead in the membership table and close its idle
  /// connections.
  void mark_dead(const std::string& replica);

  /// Replay the remembered load spec for `model` on `replica`; true when the
  /// replica answered ok. Used before retrying a predict after failover.
  bool load_on(const ReplicaInfo& replica, const std::string& model);

  void sweep_loop();

  const RouterConfig cfg_;
  Membership membership_;
  LineListener listener_;

  std::mutex models_mu_;
  std::map<std::string, std::string> models_;  ///< model -> load "path" ("" = store)

  /// One replica's idle connections, all dialed to `port`, the port its
  /// name is registered at. Connections to an older port are closed, never
  /// handed out.
  struct IdleConnections {
    std::uint16_t port = 0;
    std::vector<WireClient> clients;
  };
  std::mutex idle_mu_;
  std::map<std::string, IdleConnections> idle_;  ///< replica name -> pool

  // Scrape-to-scrape state for the fleet predict-rate rollup; serializes
  // concurrent scrapers (wire verb vs. HTTP scrape port).
  std::mutex scrape_mu_;
  double scrape_prev_predicts_ = 0.0;
  double scrape_prev_time_ = 0.0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_started_{false};
  std::thread drain_thread_;

  std::atomic<bool> sweeping_{false};
  std::mutex sweep_mu_;
  std::mutex shutdown_mu_;  // serializes concurrent shutdown() callers
  std::condition_variable sweep_cv_;
  std::thread sweep_thread_;
};

}  // namespace gsx::serve
