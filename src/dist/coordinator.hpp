// Control plane for the distributed backend: rank rendezvous, barriers,
// scalar allreduce, heartbeats and run summary, spoken as NDJSON over the
// serve LineListener — the same framing, connection handling and metrics
// plumbing as gsx_serve/gsx_router, so the fleet tooling (gsx_obs merges,
// Prometheus scrapes) works on a distributed factorization out of the box.
//
// The launcher (gsx_dist run) owns the Coordinator; each worker process
// holds one CoordClient connection for the whole run. Verbs (the op chain
// of Coordinator::handle, which tools/check_docs.sh reads — every verb must
// have an "op" example in docs/distributed.md):
//   dist_register  rank -> data-plane port announcement
//   dist_peers     poll for the complete rank -> port map
//   dist_barrier   epoch-tagged full barrier (handler thread blocks)
//   dist_reduce    epoch-tagged allreduce: sum of one double per rank
//   dist_heartbeat clock-alignment beat (HeartbeatSend/Ack/Recv flight
//                  events, the datum for gsx_obs --offsets)
//   dist_stats     end-of-run wire/pool counters for the summary
//   dist_done      terminal per-rank verdict
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/listener.hpp"
#include "serve/wire.hpp"

namespace gsx::dist {

/// Per-rank counters reported via dist_stats, summed for the run summary.
struct RankStats {
  std::uint64_t tiles_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t tiles_recv = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t recv_corrupt = 0;
  std::uint64_t spill_out = 0;
  std::uint64_t spill_in = 0;
};

/// Launcher-side rendezvous server for one distributed run of `nprocs`
/// ranks. start() binds an ephemeral loopback port that is passed to the
/// workers (gsx_dist does it via argv).
class Coordinator {
 public:
  explicit Coordinator(int nprocs);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Bind + start serving on a background thread; returns the control port.
  std::uint16_t start();

  /// Stop the listener (drains in-flight handlers).
  void stop();

  /// True once every rank sent dist_done with ok.
  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::vector<std::string> failures() const;

  /// Sum of every rank's reported counters (valid after the ranks reported).
  [[nodiscard]] RankStats total_stats() const;

 private:
  std::string handle(const std::string& line);

  const int nprocs_;
  std::unique_ptr<serve::LineListener> listener_;
  std::thread serve_thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<int, std::uint16_t> data_ports_;       ///< rank -> data port
  std::map<std::uint64_t, int> barrier_count_;    ///< epoch -> arrivals
  std::map<std::uint64_t, double> reduce_sum_;    ///< epoch -> partial sum
  std::map<std::uint64_t, int> reduce_count_;
  std::map<int, RankStats> stats_;
  int done_count_ = 0;
  std::vector<std::string> failures_;
};

/// Worker-side client: one connection, blocking request/response. Not
/// thread-safe (the factorization drives it from one thread).
class CoordClient {
 public:
  /// Connect to the launcher's control port; throws on failure.
  explicit CoordClient(std::uint16_t port, int rank);

  /// Announce this rank's data-plane port; returns nprocs.
  int register_rank(std::uint16_t data_port);

  /// Poll dist_peers until every rank has registered; returns the full
  /// rank -> data port map.
  std::map<int, std::uint16_t> wait_peers();

  /// Full barrier across all ranks. Epochs must be globally agreed and each
  /// used once (the dist backend numbers them sequentially).
  void barrier(std::uint64_t epoch);

  /// Allreduce: every rank contributes `value`, all receive the sum. Same
  /// epoch discipline as barrier(). The summation order over ranks is fixed
  /// by arrival only within one epoch — the backend uses the *result* on
  /// every rank, so all ranks see bit-identical sums.
  double allreduce_sum(std::uint64_t epoch, double value);

  /// Clock-alignment beat: emits HeartbeatSend/HeartbeatAck flight events
  /// around the round trip (the coordinator records HeartbeatRecv), which is
  /// what `gsx_obs merge --offsets` uses to estimate per-worker clock skew.
  /// `seq` must be globally unique across ranks (the backend uses
  /// rank * 1000 + n for rendezvous beats and 1<<63 | rank<<32 | n for the
  /// load-beat thread). Beats also carry this rank's scheduler load —
  /// queue_depth / inflight task counts — which the coordinator publishes as
  /// per-rank `dist.hb.*` gauges for its Prometheus exposition.
  void heartbeat(std::uint64_t seq, double queue_depth = 0.0,
                 double inflight = 0.0);

  /// Report end-of-run counters / terminal verdict.
  void report_stats(const RankStats& s);
  void done(bool ok, const std::string& message);

 private:
  serve::JsonValue request(const std::string& line);

  serve::WireClient client_;
  int rank_;
};

}  // namespace gsx::dist
