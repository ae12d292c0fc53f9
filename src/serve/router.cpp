#include "serve/router.hpp"

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "obs/export_prom.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gsx::serve {

namespace {

const std::string& require_string(const JsonValue& req, const std::string& key) {
  const JsonValue* v = req.find(key);
  GSX_REQUIRE(v != nullptr && v->is_string(),
              "request needs a string \"" + key + "\" field");
  return v->as_string();
}

/// Value of the first exposition sample whose series is exactly `series`
/// (no label set), NaN when absent. Used to read a replica's predict count
/// out of its scraped text for the fleet-rate rollup.
double first_sample_value(const std::string& text, const std::string& series) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string_view line = std::string_view(text).substr(pos, nl - pos);
    pos = nl + 1;
    if (line.size() > series.size() && line.rfind(series, 0) == 0 &&
        line[series.size()] == ' ') {
      return std::strtod(std::string(line.substr(series.size() + 1)).c_str(),
                         nullptr);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

Router::Router(RouterConfig cfg)
    : cfg_(cfg),
      membership_(cfg.stale_after_seconds, cfg.virtual_nodes),
      listener_(
          LineListener::Config{"", cfg.tcp_port, cfg.metrics_port, "router",
                               [this] { return federated_prometheus(); }},
          [this](const std::string& line) { return handle_line(line); }) {
  // Pre-register the router metric schema (see Server's constructor for the
  // rationale). Per-replica request counters and p999 gauges are keyed by
  // replica name and appear on first forward / first fleet scrape.
  auto& reg = obs::Registry::instance();
  reg.counter("router.rehash_events");
  reg.counter("router.forwards");
  reg.counter("router.forward.dials");
  reg.counter("router.forward.failures");
  reg.counter("router.failover.loads");
  reg.counter("router.slo.violations");
  reg.counter("router.fleet.scrape.failures");
  reg.gauge("router.replicas.alive");
  reg.gauge("router.heartbeat.age.max_seconds");
  reg.gauge("router.fleet.replicas.scraped");
  reg.gauge("router.fleet.predict.rate");
  reg.gauge("router.fleet.queue_depth.max");
  reg.gauge("router.fleet.inflight");
  reg.histogram("router.forward.seconds", obs::Histogram::duration_bounds());
}

Router::~Router() {
  shutdown();
  if (drain_thread_.joinable()) drain_thread_.join();
}

std::string Router::handle_line(const std::string& line) {
  try {
    const JsonValue req = JsonValue::parse(line);
    GSX_REQUIRE(req.is_object(), "request must be a JSON object");
    return handle_request(req);
  } catch (const std::exception& e) {
    return wire_error(e.what());
  }
}

std::string Router::handle_request(const JsonValue& req) {
  const std::string& op = require_string(req, "op");
  if (op == "register") return do_register(req);
  if (op == "heartbeat") return do_heartbeat(req);
  if (op == "drain") return do_drain(req);
  if (op == "load") return do_forward_by_name(req, "load");
  if (op == "unload") return do_forward_by_name(req, "unload");
  if (op == "predict") return do_predict(req);
  if (op == "stats") return do_stats();
  if (op == "health") return do_health();
  if (op == "metrics") return do_metrics();
  if (op == "fleet_metrics") return do_fleet_metrics();
  if (op == "flight_collect") return do_flight_collect(req);
  return wire_error("unknown op \"" + op + "\"");
}

std::string Router::do_register(const JsonValue& req) {
  const std::string& name = require_string(req, "replica");
  const JsonValue* port = req.find("port");
  GSX_REQUIRE(port != nullptr && port->is_number() && port->as_number() > 0 &&
                  port->as_number() < 65536,
              "register needs a \"port\" in (0, 65536)");
  std::string host = "127.0.0.1";
  if (const JsonValue* h = req.find("host"))
    if (h->is_string()) host = h->as_string();
  const bool rehashed = membership_.join(
      name, host, static_cast<std::uint16_t>(port->as_number()));
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["rehashed"] = JsonValue(rehashed);
  return JsonValue(std::move(o)).dump();
}

std::string Router::do_heartbeat(const JsonValue& req) {
  const std::string& name = require_string(req, "replica");
  double queue_depth = 0.0;
  double inflight = 0.0;
  std::uint64_t seq = 0;
  if (const JsonValue* q = req.find("queue_depth"))
    if (q->is_number()) queue_depth = q->as_number();
  if (const JsonValue* f = req.find("inflight"))
    if (f->is_number()) inflight = f->as_number();
  if (const JsonValue* s = req.find("seq")) {
    GSX_REQUIRE(s->is_number() && s->as_number() >= 0.0 &&
                    s->as_number() < 0x1p64 &&
                    std::floor(s->as_number()) == s->as_number(),
                "heartbeat \"seq\" must be an integer in [0, 2^64)");
    seq = static_cast<std::uint64_t>(s->as_number());
  }
  // The recv timestamp (router clock) between the replica's send/ack pair
  // (replica clock) is the per-heartbeat clock-offset sample gsx_obs uses.
  if (seq != 0) GSX_FLIGHT(obs::EventKind::HeartbeatRecv, 0, seq, 0, 0.0);
  if (!membership_.heartbeat(name, queue_depth, inflight))
    return wire_error("unknown or non-alive replica \"" + name +
                      "\" — re-register");
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  return JsonValue(std::move(o)).dump();
}

std::string Router::do_drain(const JsonValue& req) {
  const JsonValue* replica = req.find("replica");
  if (replica == nullptr) {
    // Drain the router itself (mirrors the replica's drain verb).
    draining_.store(true, std::memory_order_release);
    if (!drain_started_.exchange(true, std::memory_order_acq_rel)) {
      obs::log_info("router", "drain requested over the wire", {});
      drain_thread_ = std::thread([this] { shutdown(); });
    }
    JsonValue::Object o;
    o["ok"] = JsonValue(true);
    o["status"] = JsonValue("draining");
    return JsonValue(std::move(o)).dump();
  }

  GSX_REQUIRE(replica->is_string(), "\"replica\" must be a string");
  const std::string& name = replica->as_string();
  bool goodbye = false;
  if (const JsonValue* g = req.find("goodbye"))
    if (g->is_bool()) goodbye = g->as_bool();

  std::optional<ReplicaInfo> info;
  for (const ReplicaInfo& r : membership_.snapshot())
    if (r.name == name) info = r;
  if (!info) return wire_error("unknown replica \"" + name + "\"");

  membership_.drain(name);
  // An operator-initiated drain is forwarded so the replica actually winds
  // down; a goodbye drain came FROM the replica's announcer on its way out —
  // forwarding it back would just race its exit.
  bool forwarded = false;
  if (!goodbye) {
    std::string response;
    forwarded = forward(*info, "{\"op\":\"drain\"}", &response);
  }
  close_idle(name);
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["replica"] = JsonValue(name);
  o["state"] = JsonValue("draining");
  o["forwarded"] = JsonValue(forwarded);
  return JsonValue(std::move(o)).dump();
}

bool Router::forward(const ReplicaInfo& replica, const std::string& line,
                     std::string* response) {
  WireClient client;
  {
    std::lock_guard lk(idle_mu_);
    IdleConnections& idle = idle_[replica.name];
    if (idle.port != replica.port) {  // re-registered: old dials are stale
      idle.clients.clear();
      idle.port = replica.port;
    }
    if (!idle.clients.empty()) {
      client = std::move(idle.clients.back());
      idle.clients.pop_back();
    }
  }
  // A pooled connection's failure only earns a fresh dial: the replica may
  // have restarted, drained or closed it while it sat idle. The fresh dial's
  // failure is the one that says the replica is down.
  if (!client.connected() || !client.request(line, response)) {
    obs::Registry::instance().counter("router.forward.dials").add();
    if (!client.dial_tcp(replica.host, replica.port) ||
        !client.request(line, response))
      return false;
  }
  std::lock_guard lk(idle_mu_);
  IdleConnections& idle = idle_[replica.name];
  if (idle.port == replica.port) idle.clients.push_back(std::move(client));
  return true;
}

void Router::close_idle(const std::string& replica) {
  std::lock_guard lk(idle_mu_);
  const auto it = idle_.find(replica);
  if (it != idle_.end()) it->second.clients.clear();
}

void Router::mark_dead(const std::string& replica) {
  membership_.mark_dead(replica);
  close_idle(replica);
}

bool Router::load_on(const ReplicaInfo& replica, const std::string& model) {
  std::string path;
  {
    std::lock_guard lk(models_mu_);
    const auto it = models_.find(model);
    if (it == models_.end()) return false;
    path = it->second;
  }
  JsonValue::Object o;
  o["op"] = JsonValue("load");
  o["name"] = JsonValue(model);
  if (!path.empty()) o["path"] = JsonValue(path);
  std::string response;
  if (!forward(replica, JsonValue(std::move(o)).dump(), &response)) return false;
  try {
    const JsonValue r = JsonValue::parse(response);
    const JsonValue* ok = r.find("ok");
    if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
      obs::Registry::instance().counter("router.failover.loads").add();
      obs::log_info("router", "failover load replayed",
                    {obs::lf("model", model), obs::lf("replica", replica.name)});
      return true;
    }
  } catch (...) {
  }
  return false;
}

std::string Router::do_forward_by_name(const JsonValue& req,
                                       const std::string& op) {
  const std::string& name = require_string(req, "name");
  const std::optional<ReplicaInfo> owner = membership_.owner(name);
  if (!owner) return wire_error("no routable replica for model \"" + name + "\"");

  std::string line = [&] {
    JsonValue::Object o = req.as_object();  // copy, preserve client fields
    return JsonValue(std::move(o)).dump();
  }();
  std::string response;
  if (!forward(*owner, line, &response)) {
    mark_dead(owner->name);
    return wire_error("replica \"" + owner->name + "\" unreachable for " + op);
  }
  obs::Registry::instance().counter("router.requests." + owner->name).add();

  // Remember (or forget) the load spec so a failover can replay it.
  if (op == "load") {
    std::string path;
    if (const JsonValue* p = req.find("path"))
      if (p->is_string()) path = p->as_string();
    std::lock_guard lk(models_mu_);
    models_[name] = path;
  } else {
    std::lock_guard lk(models_mu_);
    models_.erase(name);
  }

  try {
    JsonValue::Object o = JsonValue::parse(response).as_object();
    o["replica"] = JsonValue(owner->name);
    return JsonValue(std::move(o)).dump();
  } catch (...) {
    return response;
  }
}

std::string Router::do_predict(const JsonValue& req) {
  const std::string& model = require_string(req, "model");

  // Mint (or adopt) the request id at the front door; the forwarded line
  // carries it so the replica's flight events share this hop's id.
  std::uint64_t request_id = 0;
  if (const JsonValue* rid = req.find("request_id"))
    if (rid->is_string()) request_id = parse_request_id(rid->as_string());
  if (request_id == 0) request_id = mint_request_id();

  // Same for the distributed trace id: a client may carry its own context;
  // otherwise the router is the trace root. The scope stamps the id on every
  // flight event this thread records below, and the forwarded trace_id /
  // parent_span_id fields extend the trace into the replica's queue/assemble/
  // solve spans — gsx_obs groups a merged timeline by exactly this id.
  std::uint64_t trace_id = 0;
  if (const JsonValue* tid = req.find("trace_id"))
    if (tid->is_string()) trace_id = parse_trace_id(tid->as_string());
  if (trace_id == 0) trace_id = mint_trace_id();
  const obs::FlightTraceScope trace_scope(trace_id);
  const double t_admit = obs::now_seconds();

  JsonValue::Object base = req.as_object();  // copy, preserve client fields
  base["request_id"] = JsonValue(request_id_string(request_id));
  base["trace_id"] = JsonValue(trace_id_string(trace_id));

  auto& reg = obs::Registry::instance();
  std::string last_error = "no routable replica for model \"" + model + "\"";
  for (std::size_t attempt = 0; attempt < cfg_.max_forward_attempts; ++attempt) {
    const std::optional<ReplicaInfo> owner = membership_.owner(model);
    if (!owner) break;
    if (attempt == 0) {
      GSX_FLIGHT(obs::EventKind::SpanRouterQueue, request_id,
                 obs::mint_span_id(), 0, obs::now_seconds() - t_admit);
    }

    // Each attempt is one span, and that span is the parent of everything
    // the replica records for this hop (SpanReplica* carry it as b).
    const std::uint64_t forward_span = obs::mint_span_id();
    const std::string line = [&] {
      JsonValue::Object o = base;
      o["parent_span_id"] = JsonValue(span_id_string(forward_span));
      return JsonValue(std::move(o)).dump();
    }();

    const double t0 = obs::now_seconds();
    std::string response;
    const bool delivered = forward(*owner, line, &response);
    const double seconds = obs::now_seconds() - t0;
    GSX_FLIGHT(obs::EventKind::RouterForward, request_id, fleet_hash(model),
               attempt, seconds);
    GSX_FLIGHT(attempt == 0 ? obs::EventKind::SpanRouterForward
                            : obs::EventKind::SpanRouterRetry,
               request_id, forward_span, 0, seconds);
    reg.counter("router.forwards").add();
    reg.histogram("router.forward.seconds").observe(seconds);
    if (seconds > cfg_.slo_forward_seconds)
      reg.counter("router.slo.violations").add();

    if (!delivered) {
      // A failed fresh dial or round trip IS the failure detector: kill the
      // owner (one rehash event) and retry on whoever inherits its arc.
      reg.counter("router.forward.failures").add();
      mark_dead(owner->name);
      last_error = "replica \"" + owner->name + "\" unreachable";
      continue;
    }
    reg.counter("router.requests." + owner->name).add();

    JsonValue parsed;
    try {
      parsed = JsonValue::parse(response);
    } catch (...) {
      return response;  // pass garbage through; client sees what we saw
    }
    const JsonValue* ok = parsed.find("ok");
    const JsonValue* err = parsed.find("error");
    const bool no_model = ok != nullptr && ok->is_bool() && !ok->as_bool() &&
                          err != nullptr && err->is_string() &&
                          err->as_string().rfind("no such model", 0) == 0;
    if (no_model && load_on(*owner, model)) {
      std::string retry;
      if (forward(*owner, line, &retry)) response = retry;
      try {
        parsed = JsonValue::parse(response);
      } catch (...) {
        return response;
      }
    }
    JsonValue::Object o = parsed.as_object();
    o["replica"] = JsonValue(owner->name);
    o["trace_id"] = JsonValue(trace_id_string(trace_id));
    return JsonValue(std::move(o)).dump();
  }
  JsonValue::Object err;
  err["ok"] = JsonValue(false);
  err["error"] = JsonValue(last_error);
  err["trace_id"] = JsonValue(trace_id_string(trace_id));
  return JsonValue(std::move(err)).dump();
}

std::string Router::do_stats() {
  const std::vector<ReplicaInfo> replicas = membership_.snapshot();
  auto& reg = obs::Registry::instance();
  JsonValue::Array arr;
  for (const ReplicaInfo& r : replicas) {
    JsonValue::Object e;
    e["name"] = JsonValue(r.name);
    e["endpoint"] = JsonValue(r.host + ":" + std::to_string(r.port));
    e["state"] = JsonValue(replica_state_name(r.state));
    e["heartbeat_age_seconds"] = JsonValue(r.heartbeat_age_seconds);
    e["heartbeats"] = JsonValue(static_cast<std::size_t>(r.heartbeats));
    e["queue_depth"] = JsonValue(r.queue_depth);
    e["inflight"] = JsonValue(r.inflight);
    e["requests"] =
        JsonValue(static_cast<std::size_t>(reg.counter("router.requests." + r.name).value()));
    arr.push_back(JsonValue(std::move(e)));
  }
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["replicas"] = JsonValue(std::move(arr));
  o["alive"] = JsonValue(membership_.alive_count());
  o["rehash_events"] =
      JsonValue(static_cast<std::size_t>(membership_.rehash_events()));
  {
    std::lock_guard lk(models_mu_);
    o["models"] = JsonValue(models_.size());
  }
  return JsonValue(std::move(o)).dump();
}

std::string Router::do_health() {
  JsonValue::Object o;
  const std::size_t alive = membership_.alive_count();
  o["ok"] = JsonValue(true);
  o["status"] = JsonValue(draining_.load(std::memory_order_acquire)
                              ? "draining"
                              : (alive > 0 ? "routing" : "no-replicas"));
  o["alive"] = JsonValue(alive);
  return JsonValue(std::move(o)).dump();
}

std::string Router::do_metrics() {
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["content_type"] = JsonValue(obs::kPrometheusContentType);
  o["prometheus"] = JsonValue(obs::render_prometheus());
  return JsonValue(std::move(o)).dump();
}

std::string Router::federated_prometheus() {
  // Serialized: the predict-rate rollup keeps scrape-to-scrape state shared
  // between the fleet_metrics verb and the HTTP scrape port.
  std::lock_guard lk(scrape_mu_);
  auto& reg = obs::Registry::instance();
  const std::string predict_family = obs::prometheus_name("serve.predict.seconds");

  std::vector<std::string> parts;
  double fleet_predicts = 0.0;
  bool have_counts = false;
  double max_queue = 0.0;
  double inflight_total = 0.0;
  std::size_t scraped = 0;
  for (const ReplicaInfo& r : membership_.snapshot()) {
    if (r.state == ReplicaState::Dead) continue;
    if (r.state == ReplicaState::Alive) {
      if (r.queue_depth > max_queue) max_queue = r.queue_depth;
      inflight_total += r.inflight;
    }
    std::string response;
    std::string text;
    bool got = false;
    if (forward(r, "{\"op\":\"metrics\"}", &response)) {
      try {
        const JsonValue parsed = JsonValue::parse(response);
        const JsonValue* prom = parsed.find("prometheus");
        if (prom != nullptr && prom->is_string()) {
          text = prom->as_string();
          got = true;
        }
      } catch (...) {
      }
    }
    if (!got) {
      reg.counter("router.fleet.scrape.failures").add();
      continue;
    }
    ++scraped;
    const double count = first_sample_value(text, predict_family + "_count");
    if (!std::isnan(count)) {
      fleet_predicts += count;
      have_counts = true;
    }
    const double p999 =
        obs::prometheus_histogram_quantile(text, predict_family, 0.999);
    if (!std::isnan(p999))
      reg.gauge("router.fleet.predict.p999." + r.name).set(p999);
    parts.push_back(obs::prometheus_with_label(text, "replica", r.name));
  }

  // Rollups land in the router's own registry (before the local render below)
  // so they ride the normal exposition path and keep stable names.
  const double now = obs::now_seconds();
  if (have_counts && scrape_prev_time_ > 0.0 && now > scrape_prev_time_ &&
      fleet_predicts >= scrape_prev_predicts_) {
    reg.gauge("router.fleet.predict.rate")
        .set((fleet_predicts - scrape_prev_predicts_) / (now - scrape_prev_time_));
  }
  if (have_counts) {
    scrape_prev_predicts_ = fleet_predicts;
    scrape_prev_time_ = now;
  }
  reg.gauge("router.fleet.replicas.scraped").set(static_cast<double>(scraped));
  reg.gauge("router.fleet.queue_depth.max").set(max_queue);
  reg.gauge("router.fleet.inflight").set(inflight_total);

  parts.insert(parts.begin(), obs::render_prometheus());
  return obs::prometheus_merge(parts);
}

std::string Router::do_fleet_metrics() {
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["content_type"] = JsonValue(obs::kPrometheusContentType);
  o["prometheus"] = JsonValue(federated_prometheus());
  return JsonValue(std::move(o)).dump();
}

std::string Router::do_flight_collect(const JsonValue& req) {
  const std::string& dir = require_string(req, "dir");
  ::mkdir(dir.c_str(), 0755);  // best effort; the writes below report failure
  JsonValue::Array files;
  std::size_t failures = 0;
  for (const ReplicaInfo& r : membership_.snapshot()) {
    if (r.state == ReplicaState::Dead) continue;
    std::string response;
    std::string jsonl;
    bool got = false;
    if (forward(r, "{\"op\":\"flight\"}", &response)) {
      try {
        const JsonValue parsed = JsonValue::parse(response);
        const JsonValue* j = parsed.find("jsonl");
        if (j != nullptr && j->is_string()) {
          jsonl = j->as_string();
          got = true;
        }
      } catch (...) {
      }
    }
    const std::string path = dir + "/flight-" + r.name + ".jsonl";
    std::ofstream out;
    if (got) out.open(path, std::ios::trunc);
    if (!got || !out) {
      ++failures;
      obs::log_warn("router", "flight_collect: replica dump failed",
                    {obs::lf("replica", r.name)});
      continue;
    }
    out << jsonl;
    files.push_back(JsonValue(path));
  }
  // The router's own recorder completes the picture: its forward spans and
  // heartbeat recv events are the reference clock for the merge.
  const std::string router_path = dir + "/flight-router.jsonl";
  {
    std::ofstream out(router_path, std::ios::trunc);
    if (out) {
      out << obs::FlightRecorder::instance().snapshot_jsonl();
      files.push_back(JsonValue(router_path));
    } else {
      ++failures;
    }
  }
  JsonValue::Object o;
  o["ok"] = JsonValue(!files.empty());
  o["dir"] = JsonValue(dir);
  o["files"] = JsonValue(std::move(files));
  o["failures"] = JsonValue(failures);
  return JsonValue(std::move(o)).dump();
}

void Router::sweep_loop() {
  auto& reg = obs::Registry::instance();
  while (sweeping_.load(std::memory_order_acquire)) {
    membership_.expire_stale();
    const std::vector<ReplicaInfo> replicas = membership_.snapshot();
    double max_age = 0.0;
    for (const ReplicaInfo& r : replicas) {
      if (r.state != ReplicaState::Alive)
        close_idle(r.name);  // stale expiries, and connections returned late
      else if (r.heartbeat_age_seconds > max_age)
        max_age = r.heartbeat_age_seconds;
    }
    reg.gauge("router.replicas.alive")
        .set(static_cast<double>(membership_.alive_count()));
    reg.gauge("router.heartbeat.age.max_seconds").set(max_age);
    std::unique_lock lk(sweep_mu_);
    sweep_cv_.wait_for(lk, std::chrono::duration<double>(cfg_.sweep_seconds),
                       [this] { return !sweeping_.load(std::memory_order_acquire); });
  }
}

std::uint16_t Router::listen() {
  const std::uint16_t port = listener_.listen();
  sweeping_.store(true, std::memory_order_release);
  sweep_thread_ = std::thread([this] { sweep_loop(); });
  return port;
}

void Router::serve_forever() { listener_.serve_forever(); }

void Router::shutdown() {
  // A wire-initiated drain (watcher thread) and the daemon's post-accept
  // shutdown path can call this concurrently; both joining sweep_thread_
  // would be UB, so serialize the whole teardown.
  std::lock_guard lk(shutdown_mu_);
  draining_.store(true, std::memory_order_release);
  sweeping_.store(false, std::memory_order_release);
  sweep_cv_.notify_all();
  if (sweep_thread_.joinable()) sweep_thread_.join();
  listener_.shutdown();
  std::lock_guard idle_lk(idle_mu_);
  idle_.clear();
}

}  // namespace gsx::serve
