#include "serve/server.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "geostat/kernel_registry.hpp"
#include "obs/export_prom.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"

namespace gsx::serve {

namespace {

JsonValue stats_to_json(const RegistryStats& r, const EngineStats& e) {
  JsonValue::Object reg;
  reg["models"] = JsonValue(r.models);
  reg["resident_bytes"] = JsonValue(r.resident_bytes);
  reg["capacity_bytes"] = JsonValue(r.capacity_bytes);
  reg["hits"] = JsonValue(static_cast<std::size_t>(r.hits));
  reg["misses"] = JsonValue(static_cast<std::size_t>(r.misses));
  reg["loads"] = JsonValue(static_cast<std::size_t>(r.loads));
  reg["evictions"] = JsonValue(static_cast<std::size_t>(r.evictions));

  JsonValue::Object eng;
  eng["accepted"] = JsonValue(static_cast<std::size_t>(e.accepted));
  eng["completed"] = JsonValue(static_cast<std::size_t>(e.completed));
  eng["rejected_queue_full"] = JsonValue(static_cast<std::size_t>(e.rejected_queue_full));
  eng["rejected_deadline"] = JsonValue(static_cast<std::size_t>(e.rejected_deadline));
  eng["batches"] = JsonValue(static_cast<std::size_t>(e.batches));
  eng["batched_points"] = JsonValue(static_cast<std::size_t>(e.batched_points));
  eng["queue_depth"] = JsonValue(e.queue_depth);
  eng["in_flight"] = JsonValue(e.in_flight);

  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["registry"] = JsonValue(std::move(reg));
  o["engine"] = JsonValue(std::move(eng));
  return JsonValue(std::move(o));
}

const std::string& require_string(const JsonValue& req, const std::string& key) {
  const JsonValue* v = req.find(key);
  GSX_REQUIRE(v != nullptr && v->is_string(),
              "request needs a string \"" + key + "\" field");
  return v->as_string();
}

/// now + `seconds` on the engine clock. Its duration counts int64
/// nanoseconds, so a deadline past the clock's range (~292 years) would
/// overflow the conversion; the range is checked in seconds first, and such
/// a deadline means no deadline. The one-second slack absorbs the rounding
/// of `seconds` to nanoseconds at the boundary.
KrigingEngine::Clock::time_point deadline_after(double seconds) {
  using Clock = KrigingEngine::Clock;
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> room = Clock::time_point::max() - now;
  if (!(seconds < room.count() - 1.0)) return Clock::time_point::max();
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(cfg),
      registry_(cfg.cache_bytes),
      engine_(EngineConfig{cfg.workers, cfg.queue_capacity, cfg.max_batch_points}),
      listener_(
          LineListener::Config{cfg.unix_path, cfg.tcp_port, cfg.metrics_port, "serve",
                               /*metrics_renderer=*/{}},
          [this](const std::string& line) { return handle_line(line); }) {
  // Pre-register the serving metrics so a scrape sees the full schema (zeroed
  // series included) before the first request, not a shape that grows as
  // traffic happens to exercise code paths.
  auto& reg = obs::Registry::instance();
  reg.gauge("serve.queue.depth");
  reg.gauge("serve.inflight");
  reg.gauge("serve.cache.bytes");
  reg.gauge("serve.cache.models");
  reg.gauge("taskgraph.queue_depth");
  reg.counter("serve.cache.hits");
  reg.counter("serve.cache.misses");
  reg.counter("serve.cache.evictions");
  reg.counter("serve.rejected.queue_full");
  reg.counter("serve.rejected.deadline");
  reg.counter("serve.drains");
  reg.histogram("serve.predict.seconds", obs::Histogram::duration_bounds());
  reg.histogram("serve.queue.seconds", obs::Histogram::duration_bounds());
  reg.histogram("serve.batch.points");
}

Server::~Server() {
  shutdown();
  if (drain_thread_.joinable()) drain_thread_.join();
}

std::string Server::handle_line(const std::string& line) {
  try {
    const JsonValue req = JsonValue::parse(line);
    GSX_REQUIRE(req.is_object(), "request must be a JSON object");
    return handle_request(req);
  } catch (const std::exception& e) {
    return wire_error(e.what());
  }
}

std::string Server::handle_request(const JsonValue& req) {
  const std::string& op = require_string(req, "op");
  if (op == "load") return do_load(req);
  if (op == "unload") return do_unload(req);
  if (op == "predict") return do_predict(req);
  if (op == "stats") return do_stats();
  if (op == "health") return do_health();
  if (op == "metrics") return do_metrics();
  if (op == "drain") return do_drain();
  if (op == "flight") return do_flight();
  return wire_error("unknown op \"" + op + "\"");
}

std::string Server::do_load(const JsonValue& req) {
  const std::string& name = require_string(req, "name");
  std::string path;
  if (const JsonValue* p = req.find("path")) {
    GSX_REQUIRE(p->is_string(), "\"path\" must be a string");
    path = p->as_string();
    // A relative path names a file inside the shared store, so routers can
    // ship one load spec to any replica regardless of its working directory.
    if (!cfg_.store_dir.empty() && !path.empty() && path.front() != '/')
      path = cfg_.store_dir + "/" + path;
  } else {
    if (cfg_.store_dir.empty())
      return wire_error("load without \"path\" needs a checkpoint store "
                        "(--store) to resolve \"" + name + "\"");
    path = resolve_store_checkpoint(cfg_.store_dir, name);
  }
  const std::shared_ptr<const LoadedModel> model = registry_.load(name, path);
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["name"] = JsonValue(model->name);
  o["path"] = JsonValue(path);
  o["kernel"] = JsonValue(geostat::kernel_name(*model->kernel));
  o["n_train"] = JsonValue(model->train_locs.size());
  o["resident_bytes"] = JsonValue(model->resident_bytes);
  return JsonValue(std::move(o)).dump();
}

std::string Server::do_unload(const JsonValue& req) {
  const std::string& name = require_string(req, "name");
  const bool removed = registry_.unload(name);
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["unloaded"] = JsonValue(removed);
  return JsonValue(std::move(o)).dump();
}

std::string Server::do_predict(const JsonValue& req) {
  const std::string& name = require_string(req, "model");
  std::shared_ptr<const LoadedModel> model = registry_.get(name);
  if (model == nullptr) return wire_error("no such model \"" + name + "\"");

  const JsonValue* pts = req.find("points");
  GSX_REQUIRE(pts != nullptr && pts->is_array() && !pts->as_array().empty(),
              "request needs a non-empty \"points\" array");
  std::vector<geostat::Location> points;
  points.reserve(pts->as_array().size());
  for (const JsonValue& p : pts->as_array()) {
    GSX_REQUIRE(p.is_array() && (p.as_array().size() == 2 || p.as_array().size() == 3),
                "each point must be [x,y] or [x,y,t]");
    geostat::Location loc;
    loc.x = p.as_array()[0].as_number();
    loc.y = p.as_array()[1].as_number();
    if (p.as_array().size() == 3) loc.t = p.as_array()[2].as_number();
    points.push_back(loc);
  }

  bool with_variance = true;
  if (const JsonValue* v = req.find("variance")) with_variance = v->as_bool();

  double deadline_seconds = cfg_.default_deadline_seconds;
  if (const JsonValue* d = req.find("deadline_ms")) {
    GSX_REQUIRE(d->is_number() && d->as_number() > 0, "\"deadline_ms\" must be > 0");
    deadline_seconds = d->as_number() / 1000.0;
  }
  const auto deadline = deadline_after(deadline_seconds);

  // The request id is minted here at the wire boundary — unless an upstream
  // router already minted one and forwarded it, in which case both hops'
  // flight events and spans trace under the router's id. The distributed
  // trace context (trace_id + parent_span_id) is only ever adopted, never
  // minted: a replica reached directly has no router hop to nest under.
  std::uint64_t request_id = 0;
  if (const JsonValue* rid = req.find("request_id"))
    if (rid->is_string()) request_id = parse_request_id(rid->as_string());
  if (request_id == 0) request_id = mint_request_id();
  std::uint64_t trace_id = 0;
  if (const JsonValue* tid = req.find("trace_id"))
    if (tid->is_string()) trace_id = parse_trace_id(tid->as_string());
  std::uint64_t parent_span = 0;
  if (const JsonValue* ps = req.find("parent_span_id"))
    if (ps->is_string()) parent_span = parse_trace_id(ps->as_string());
  PredictOutcome out = engine_
                           .submit(std::move(model), std::move(points), with_variance,
                                   deadline, request_id, trace_id, parent_span)
                           .get();
  if (!out.ok) {
    JsonValue::Object o;
    o["ok"] = JsonValue(false);
    o["error"] = JsonValue(out.error);
    o["request_id"] = JsonValue(request_id_string(request_id));
    if (trace_id != 0) o["trace_id"] = JsonValue(trace_id_string(trace_id));
    if (!out.flight_dump.empty()) o["flight_dump"] = JsonValue(out.flight_dump);
    return JsonValue(std::move(o)).dump();
  }

  JsonValue::Array mean;
  mean.reserve(out.mean.size());
  for (const double m : out.mean) mean.emplace_back(m);
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["request_id"] = JsonValue(request_id_string(request_id));
  if (trace_id != 0) o["trace_id"] = JsonValue(trace_id_string(trace_id));
  o["mean"] = JsonValue(std::move(mean));
  if (with_variance) {
    JsonValue::Array variance;
    variance.reserve(out.variance.size());
    for (const double v : out.variance) variance.emplace_back(v);
    o["variance"] = JsonValue(std::move(variance));
  }
  o["batched_with"] = JsonValue(out.batched_with);
  o["queue_seconds"] = JsonValue(out.queue_seconds);
  o["total_seconds"] = JsonValue(out.total_seconds);
  JsonValue::Object timing;
  timing["queue_seconds"] = JsonValue(out.queue_seconds);
  timing["assemble_seconds"] = JsonValue(out.assemble_seconds);
  timing["solve_seconds"] = JsonValue(out.solve_seconds);
  timing["total_seconds"] = JsonValue(out.total_seconds);
  o["timing"] = JsonValue(std::move(timing));
  return JsonValue(std::move(o)).dump();
}

std::string Server::do_stats() {
  return stats_to_json(registry_.stats(), engine_.stats()).dump();
}

std::string Server::do_metrics() {
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["content_type"] = JsonValue(obs::kPrometheusContentType);
  o["prometheus"] = JsonValue(obs::render_prometheus());
  return JsonValue(std::move(o)).dump();
}

std::string Server::do_flight() {
  // On-demand flight dump over the wire: the router's flight_collect verb
  // gathers one of these per replica and gsx_obs merges them. The JSONL
  // already opens with the dump header (wall anchor, process, pid), so the
  // response needs no extra alignment fields.
  auto& fr = obs::FlightRecorder::instance();
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["process"] = JsonValue(fr.process_name());
  o["jsonl"] = JsonValue(fr.snapshot_jsonl());
  return JsonValue(std::move(o)).dump();
}

std::string Server::do_health() {
  const RegistryStats r = registry_.stats();
  const EngineStats e = engine_.stats();
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["status"] =
      JsonValue(draining_.load(std::memory_order_acquire) ? "draining" : "serving");
  o["models"] = JsonValue(r.models);
  o["queue_depth"] = JsonValue(e.queue_depth);
  return JsonValue(std::move(o)).dump();
}

std::string Server::do_drain() {
  draining_.store(true, std::memory_order_release);
  // One-shot: the first drain spawns the background exit; repeats just
  // re-acknowledge. The response is written before the listener tears the
  // connection down because shutdown() half-closes with SHUT_RD — a reply
  // in flight always reaches the client.
  if (!drain_started_.exchange(true, std::memory_order_acq_rel)) {
    obs::Registry::instance().counter("serve.drains").add();
    obs::log_info("serve", "drain requested over the wire", {});
    drain_thread_ = std::thread([this] {
      if (on_drain_) on_drain_();
      else shutdown();
    });
  }
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["status"] = JsonValue("draining");
  return JsonValue(std::move(o)).dump();
}

std::uint16_t Server::listen() { return listener_.listen(); }

void Server::serve_forever() { listener_.serve_forever(); }

void Server::shutdown() {
  draining_.store(true, std::memory_order_release);
  listener_.shutdown();
  engine_.drain();
}

}  // namespace gsx::serve
