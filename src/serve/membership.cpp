#include "serve/membership.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/listener.hpp"
#include "serve/wire.hpp"

namespace gsx::serve {

namespace {

/// Fleet-unique heartbeat sequence numbers. gsx_obs pairs a replica's
/// HeartbeatSend/Ack with the router's HeartbeatRecv by seq alone, so two
/// announcers both counting from 1 (separate replicas, or several in-process
/// replicas in a test fleet) would cross-pair — fold the pid into the high
/// bits and share one process-wide counter.
std::uint64_t next_heartbeat_seq() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  const auto pid = static_cast<std::uint64_t>(::getpid() & 0xFFFF);
  return (pid << 32) | (counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

}  // namespace

const char* replica_state_name(ReplicaState s) noexcept {
  switch (s) {
    case ReplicaState::Alive: return "alive";
    case ReplicaState::Draining: return "draining";
    case ReplicaState::Dead: return "dead";
  }
  return "unknown";
}

std::uint64_t fleet_hash(const std::string& key) noexcept {
  // FNV-1a to fold the bytes, splitmix64 to mix: cheap, deterministic across
  // processes (placement must agree between router instances), and uniform
  // enough that 64 virtual nodes balance a handful of replicas.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

Membership::Membership(double stale_after_seconds, std::size_t virtual_nodes)
    : stale_after_(stale_after_seconds), virtual_nodes_(virtual_nodes) {}

void Membership::rebuild_ring_locked() {
  ring_.clear();
  ring_.reserve(names_.size() * virtual_nodes_);
  for (std::size_t e = 0; e < names_.size(); ++e) {
    for (std::size_t v = 0; v < virtual_nodes_; ++v) {
      ring_.push_back(
          RingPoint{fleet_hash(names_[e] + "#" + std::to_string(v)), e});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const RingPoint& a, const RingPoint& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.entry < b.entry;
  });
}

bool Membership::routable_locked(const Entry& e, Clock::time_point now) const {
  if (e.state != ReplicaState::Alive) return false;
  return std::chrono::duration<double>(now - e.last_heartbeat).count() <=
         stale_after_;
}

ReplicaInfo Membership::info_locked(const std::string& name, const Entry& e,
                                    Clock::time_point now) const {
  ReplicaInfo r;
  r.name = name;
  r.host = e.host;
  r.port = e.port;
  r.state = e.state;
  r.heartbeat_age_seconds =
      std::chrono::duration<double>(now - e.last_heartbeat).count();
  r.heartbeats = e.heartbeats;
  r.queue_depth = e.queue_depth;
  r.inflight = e.inflight;
  return r;
}

bool Membership::join(const std::string& name, const std::string& host,
                      std::uint16_t port, Clock::time_point now) {
  std::lock_guard lk(mu_);
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  bool changed;
  if (it != names_.end() && *it == name) {
    Entry& e = entries_[static_cast<std::size_t>(it - names_.begin())];
    changed = e.state != ReplicaState::Alive || !routable_locked(e, now);
    e.host = host;
    e.port = port;
    e.state = ReplicaState::Alive;
    e.last_heartbeat = now;
    ++e.heartbeats;
  } else {
    const std::size_t idx = static_cast<std::size_t>(it - names_.begin());
    names_.insert(it, name);
    Entry e;
    e.host = host;
    e.port = port;
    e.last_heartbeat = now;
    e.heartbeats = 1;
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(idx),
                    std::move(e));
    rebuild_ring_locked();
    changed = true;
  }
  if (changed) {
    rehash_events_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("router.rehash_events").add();
    obs::log_info("router", "replica joined the routable set",
                  {obs::lf("replica", name),
                   obs::lf("endpoint", host + ":" + std::to_string(port))});
  }
  return changed;
}

bool Membership::heartbeat(const std::string& name, double queue_depth,
                           double inflight, Clock::time_point now) {
  std::lock_guard lk(mu_);
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return false;
  Entry& e = entries_[static_cast<std::size_t>(it - names_.begin())];
  if (e.state != ReplicaState::Alive) return false;
  e.last_heartbeat = now;
  e.queue_depth = queue_depth;
  e.inflight = inflight;
  ++e.heartbeats;
  return true;
}

bool Membership::drain(const std::string& name) {
  std::lock_guard lk(mu_);
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return false;
  Entry& e = entries_[static_cast<std::size_t>(it - names_.begin())];
  if (e.state == ReplicaState::Draining) return true;
  const bool was_routable = e.state == ReplicaState::Alive;
  e.state = ReplicaState::Draining;
  if (was_routable) {
    rehash_events_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("router.rehash_events").add();
  }
  return true;
}

bool Membership::mark_dead(const std::string& name) {
  std::lock_guard lk(mu_);
  const auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return false;
  Entry& e = entries_[static_cast<std::size_t>(it - names_.begin())];
  if (e.state == ReplicaState::Dead) return false;
  const bool was_routable = e.state == ReplicaState::Alive;
  e.state = ReplicaState::Dead;
  if (was_routable) {
    rehash_events_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("router.rehash_events").add();
    obs::log_warn("router", "replica marked dead", {obs::lf("replica", name)});
  }
  return true;
}

std::size_t Membership::expire_stale(Clock::time_point now) {
  std::lock_guard lk(mu_);
  std::size_t demoted = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.state != ReplicaState::Alive || routable_locked(e, now)) continue;
    e.state = ReplicaState::Dead;
    ++demoted;
    rehash_events_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::instance().counter("router.rehash_events").add();
    obs::log_warn("router", "replica heartbeat went stale",
                  {obs::lf("replica", names_[i])});
  }
  return demoted;
}

std::optional<ReplicaInfo> Membership::owner(const std::string& model,
                                             Clock::time_point now) const {
  std::lock_guard lk(mu_);
  if (ring_.empty()) return std::nullopt;
  const std::uint64_t h = fleet_hash(model);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const RingPoint& p, std::uint64_t hash) { return p.hash < hash; });
  // Walk clockwise from the model's hash until a routable replica appears;
  // every dead/draining replica's arc falls through to its ring successor.
  for (std::size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const Entry& e = entries_[it->entry];
    if (routable_locked(e, now)) return info_locked(names_[it->entry], e, now);
  }
  return std::nullopt;
}

std::vector<ReplicaInfo> Membership::snapshot(Clock::time_point now) const {
  std::lock_guard lk(mu_);
  std::vector<ReplicaInfo> out;
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i)
    out.push_back(info_locked(names_[i], entries_[i], now));
  return out;
}

std::size_t Membership::alive_count(Clock::time_point now) const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_)
    if (routable_locked(e, now)) ++n;
  return n;
}

std::uint64_t Membership::rehash_events() const noexcept {
  return rehash_events_.load(std::memory_order_relaxed);
}

// --- Announcer ---------------------------------------------------------------

Announcer::Announcer(Config cfg, std::function<ReplicaLoad()> load)
    : cfg_(std::move(cfg)), load_(std::move(load)) {}

Announcer::~Announcer() { stop(); }

void Announcer::start() {
  if (thread_.joinable()) return;
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void Announcer::stop() {
  std::lock_guard stop_lk(stop_mu_);  // two stoppers must not both join
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Announcer::loop() {
  WireClient client;
  bool registered = false;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!client.connected()) {
      registered = false;
      if (!client.dial_tcp(cfg_.router_host, cfg_.router_port)) {
        obs::log_warn("serve", "announcer cannot reach router, will retry",
                      {obs::lf("router", cfg_.router_host + ":" +
                                             std::to_string(cfg_.router_port))});
      }
    }
    if (client.connected()) {
      JsonValue::Object o;
      std::string response;
      bool beat = false;
      std::uint64_t seq = 0;
      if (!registered) {
        o["op"] = JsonValue("register");
        o["replica"] = JsonValue(cfg_.replica_name);
        o["host"] = JsonValue(cfg_.replica_host);
        o["port"] = JsonValue(static_cast<std::size_t>(cfg_.replica_port));
      } else {
        const ReplicaLoad load = load_ ? load_() : ReplicaLoad{};
        beat = true;
        seq = next_heartbeat_seq();
        o["op"] = JsonValue("heartbeat");
        o["replica"] = JsonValue(cfg_.replica_name);
        o["queue_depth"] = JsonValue(load.queue_depth);
        o["inflight"] = JsonValue(load.inflight);
        o["seq"] = JsonValue(static_cast<std::size_t>(seq));
      }
      // The send/ack bracket around the router's recv is the NTP-style
      // clock-offset sample gsx_obs uses to align this replica's dump.
      const double t0 = obs::now_seconds();
      if (beat) GSX_FLIGHT(obs::EventKind::HeartbeatSend, 0, seq, 0, 0.0);
      if (client.request(JsonValue(std::move(o)).dump(), &response)) {
        if (beat)
          GSX_FLIGHT(obs::EventKind::HeartbeatAck, 0, seq, 0,
                     obs::now_seconds() - t0);
        // An unknown-replica heartbeat answer means the router restarted:
        // fall back to register on the next beat.
        const JsonValue r = [&] {
          try {
            return JsonValue::parse(response);
          } catch (...) {
            return JsonValue();
          }
        }();
        const JsonValue* ok = r.find("ok");
        if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
          registered = true;
          delivered_.fetch_add(1, std::memory_order_relaxed);
        } else {
          registered = false;
        }
      }
    }
    std::unique_lock lk(mu_);
    cv_.wait_for(lk, std::chrono::duration<double>(cfg_.heartbeat_seconds),
                 [this] { return stopping_.load(std::memory_order_acquire); });
  }
  // Best-effort goodbye so the router rehashes immediately instead of
  // waiting out the stale window.
  if (client.connected()) {
    JsonValue::Object o;
    o["op"] = JsonValue("drain");
    o["replica"] = JsonValue(cfg_.replica_name);
    o["goodbye"] = JsonValue(true);
    std::string response;
    client.request(JsonValue(std::move(o)).dump(), &response);
  }
}

}  // namespace gsx::serve
