// Fleet membership: the router-side replica table plus the consistent-hash
// ring that assigns model names to replicas, and the replica-side announcer
// that registers and heartbeats over the NDJSON wire.
//
// Ownership is a classic consistent-hash ring (each replica contributes
// `virtual_nodes` points keyed by a 64-bit hash of "name#i"; a model is
// owned by the first routable point clockwise of hash(model)). The ring
// depends only on the set of replica names — never on join order — so every
// router instance, and a router across restarts, agrees on placement, and
// adding or removing one replica moves only ~1/N of the models.
//
// A replica is routable while Alive with a fresh heartbeat. Draining and
// Dead replicas stay in the table (operators want to see them in `stats`)
// but receive no new work; a stale heartbeat (age > stale_after) demotes
// Alive -> Dead on the next expire_stale() sweep. Every change to the
// routable set counts as one rehash event.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace gsx::serve {

enum class ReplicaState : unsigned char { Alive, Draining, Dead };

[[nodiscard]] const char* replica_state_name(ReplicaState s) noexcept;

/// One replica as the router sees it. `host` is informational (the fleet is
/// loopback-only); `port` is the replica's NDJSON listener.
struct ReplicaInfo {
  std::string name;
  std::string host;
  std::uint16_t port = 0;
  ReplicaState state = ReplicaState::Alive;
  double heartbeat_age_seconds = 0.0;  ///< snapshot-relative
  std::uint64_t heartbeats = 0;        ///< register + heartbeat count
  double queue_depth = 0.0;            ///< last reported by the replica
  double inflight = 0.0;               ///< predicts inside a solver pass —
                                       ///< queue_depth alone under-reports
                                       ///< load during micro-batched solves
};

/// What a replica reports about its own load on every heartbeat.
struct ReplicaLoad {
  double queue_depth = 0.0;  ///< engine admission-queue depth
  double inflight = 0.0;     ///< predicts currently inside a solver pass
};

/// 64-bit mixing hash (splitmix64 over FNV-1a). Exposed so tests can assert
/// ring placement independently of the Membership internals.
[[nodiscard]] std::uint64_t fleet_hash(const std::string& key) noexcept;

class Membership {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Membership(double stale_after_seconds = 10.0,
                      std::size_t virtual_nodes = 64);

  /// Register (or re-register) a replica as Alive with a fresh heartbeat.
  /// Returns true when the routable set changed (new replica, or a Draining/
  /// Dead one coming back).
  bool join(const std::string& name, const std::string& host, std::uint16_t port,
            Clock::time_point now = Clock::now());

  /// Refresh a replica's heartbeat + reported load (queue depth and
  /// in-flight predict count). Returns false for an unknown name (the
  /// replica should re-register). A heartbeat does NOT resurrect a Dead or
  /// Draining replica — only join() does, so a replica that missed the
  /// stale window must re-announce itself.
  bool heartbeat(const std::string& name, double queue_depth,
                 double inflight = 0.0, Clock::time_point now = Clock::now());

  /// Mark Draining: keeps the replica in the table, removes it from the
  /// ring's routable set. Returns false for an unknown name.
  bool drain(const std::string& name);

  /// Mark Dead (failed forward, kill detection). Returns false when unknown
  /// or already Dead.
  bool mark_dead(const std::string& name);

  /// Demote Alive replicas whose heartbeat age exceeds stale_after to Dead.
  /// Returns how many were demoted (each is one rehash event).
  std::size_t expire_stale(Clock::time_point now = Clock::now());

  /// Consistent-hash owner of `model`: the first Alive, heartbeat-fresh ring
  /// point clockwise of fleet_hash(model). nullopt when nothing is routable.
  [[nodiscard]] std::optional<ReplicaInfo> owner(
      const std::string& model, Clock::time_point now = Clock::now()) const;

  [[nodiscard]] std::vector<ReplicaInfo> snapshot(
      Clock::time_point now = Clock::now()) const;

  /// Routable (Alive, fresh) replica count.
  [[nodiscard]] std::size_t alive_count(Clock::time_point now = Clock::now()) const;

  /// Cumulative changes to the routable set (joins, deaths, drains,
  /// stale expiries).
  [[nodiscard]] std::uint64_t rehash_events() const noexcept;

  [[nodiscard]] double stale_after_seconds() const noexcept { return stale_after_; }

 private:
  struct Entry {
    std::string host;
    std::uint16_t port = 0;
    ReplicaState state = ReplicaState::Alive;
    Clock::time_point last_heartbeat{};
    std::uint64_t heartbeats = 0;
    double queue_depth = 0.0;
    double inflight = 0.0;
  };
  struct RingPoint {
    std::uint64_t hash = 0;
    std::size_t entry = 0;  ///< index into names_/entries-by-name order
  };

  void rebuild_ring_locked();
  [[nodiscard]] bool routable_locked(const Entry& e, Clock::time_point now) const;
  [[nodiscard]] ReplicaInfo info_locked(const std::string& name, const Entry& e,
                                        Clock::time_point now) const;

  const double stale_after_;
  const std::size_t virtual_nodes_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;              ///< sorted; index = RingPoint::entry
  std::vector<Entry> entries_;                  ///< parallel to names_
  std::vector<RingPoint> ring_;                 ///< sorted by hash
  std::atomic<std::uint64_t> rehash_events_{0};
};

/// Replica-side fleet membership: dials the router, registers this replica's
/// endpoint, then heartbeats on a background thread until stopped. Lost
/// router connections are re-dialed (and re-registered) with backoff — a
/// router restart heals itself.
class Announcer {
 public:
  struct Config {
    std::string router_host = "127.0.0.1";
    std::uint16_t router_port = 0;
    std::string replica_name;
    std::string replica_host = "127.0.0.1";
    std::uint16_t replica_port = 0;       ///< this replica's NDJSON port
    double heartbeat_seconds = 2.0;
  };

  /// `load` is polled at each heartbeat (queue depth + in-flight predicts,
  /// reported to the router). Each heartbeat carries a sequence number and
  /// records HeartbeatSend/HeartbeatAck flight events — paired with the
  /// router's HeartbeatRecv, they are the clock-offset datum for gsx_obs.
  Announcer(Config cfg, std::function<ReplicaLoad()> load);
  ~Announcer();

  Announcer(const Announcer&) = delete;
  Announcer& operator=(const Announcer&) = delete;

  void start();
  /// Sends the goodbye and joins the heartbeat thread. Idempotent and safe
  /// under concurrent callers (signal watcher vs. main shutdown path).
  void stop();

  /// Heartbeats successfully delivered (register replies included).
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_.load(std::memory_order_relaxed);
  }

 private:
  void loop();

  const Config cfg_;
  const std::function<ReplicaLoad()> load_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> delivered_{0};
  std::mutex mu_;
  std::mutex stop_mu_;  // serializes concurrent stop() callers around join
  std::condition_variable cv_;
  std::thread thread_;
};

}  // namespace gsx::serve
