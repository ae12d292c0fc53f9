#include "dist/coordinator.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"

namespace gsx::dist {

namespace {

double num_field(const serve::JsonValue& req, const char* key) {
  const serve::JsonValue* v = req.find(key);
  GSX_REQUIRE(v != nullptr && v->is_number(), "dist wire: missing numeric field");
  return v->as_number();
}

std::uint64_t u64_field(const serve::JsonValue& req, const char* key) {
  return static_cast<std::uint64_t>(num_field(req, key));
}

}  // namespace

Coordinator::Coordinator(int nprocs) : nprocs_(nprocs) {
  GSX_REQUIRE(nprocs >= 1, "Coordinator: need at least one rank");
}

Coordinator::~Coordinator() { stop(); }

std::uint16_t Coordinator::start() {
  serve::LineListener::Config cfg;
  cfg.tcp_port = 0;  // ephemeral loopback; workers get it via argv
  cfg.log_tag = "dist";
  listener_ = std::make_unique<serve::LineListener>(
      std::move(cfg), [this](const std::string& line) { return handle(line); });
  const std::uint16_t port = listener_->listen();
  serve_thread_ = std::thread([this] { listener_->serve_forever(); });
  return port;
}

void Coordinator::stop() {
  if (listener_) listener_->shutdown();
  if (serve_thread_.joinable()) serve_thread_.join();
}

std::string Coordinator::handle(const std::string& line) {
  try {
    const serve::JsonValue req = serve::JsonValue::parse(line);
    const serve::JsonValue* opv = req.find("op");
    GSX_REQUIRE(opv != nullptr && opv->is_string(), "dist wire: missing op");
    const std::string& op = opv->as_string();
    serve::JsonValue::Object resp;
    resp["ok"] = true;

    if (op == "dist_register") {
      const int rank = static_cast<int>(num_field(req, "rank"));
      GSX_REQUIRE(rank >= 0 && rank < nprocs_, "dist_register: rank out of range");
      std::lock_guard lk(mu_);
      data_ports_[rank] = static_cast<std::uint16_t>(num_field(req, "data_port"));
      resp["nprocs"] = nprocs_;
      cv_.notify_all();
    } else if (op == "dist_peers") {
      std::lock_guard lk(mu_);
      const bool ready = static_cast<int>(data_ports_.size()) == nprocs_;
      resp["ready"] = ready;
      if (ready) {
        serve::JsonValue::Object peers;
        for (const auto& [rank, port] : data_ports_)
          peers[std::to_string(rank)] = static_cast<std::size_t>(port);
        resp["peers"] = std::move(peers);
      }
    } else if (op == "dist_barrier") {
      const std::uint64_t epoch = u64_field(req, "epoch");
      std::unique_lock lk(mu_);
      const int arrivals = ++barrier_count_[epoch];
      GSX_REQUIRE(arrivals <= nprocs_, "dist_barrier: epoch reused");
      if (arrivals == nprocs_) {
        cv_.notify_all();
      } else {
        // Blocking the handler thread is the LineListener contract working
        // for us: each rank holds its own connection (and thread).
        cv_.wait(lk, [&] { return barrier_count_[epoch] == nprocs_; });
      }
    } else if (op == "dist_reduce") {
      const std::uint64_t epoch = u64_field(req, "epoch");
      const double value = num_field(req, "value");
      std::unique_lock lk(mu_);
      reduce_sum_[epoch] += value;
      const int arrivals = ++reduce_count_[epoch];
      GSX_REQUIRE(arrivals <= nprocs_, "dist_reduce: epoch reused");
      if (arrivals == nprocs_) {
        cv_.notify_all();
      } else {
        cv_.wait(lk, [&] { return reduce_count_[epoch] == nprocs_; });
      }
      // All ranks read the identical finished sum: the precision decisions
      // derived from it (global Frobenius norm) match bit-for-bit everywhere.
      resp["sum"] = reduce_sum_[epoch];
    } else if (op == "dist_heartbeat") {
      const std::uint64_t seq = u64_field(req, "seq");
      GSX_FLIGHT(obs::EventKind::HeartbeatRecv, 0, seq, 0, 0.0);
      resp["seq"] = static_cast<std::size_t>(seq);
      // Beats optionally carry the rank's scheduler load; republish as
      // per-rank gauges so the launcher's metrics exposition shows fleet
      // load without another wire protocol.
      const serve::JsonValue* qd = req.find("queue_depth");
      const serve::JsonValue* inf = req.find("inflight");
      if (qd != nullptr && qd->is_number() && inf != nullptr && inf->is_number()) {
        const std::string rank = std::to_string(static_cast<int>(num_field(req, "rank")));
        obs::Registry::instance().gauge("dist.hb.queue_depth." + rank).set(qd->as_number());
        obs::Registry::instance().gauge("dist.hb.inflight." + rank).set(inf->as_number());
      }
    } else if (op == "dist_stats") {
      const int rank = static_cast<int>(num_field(req, "rank"));
      RankStats s;
      s.tiles_sent = u64_field(req, "tiles_sent");
      s.bytes_sent = u64_field(req, "bytes_sent");
      s.tiles_recv = u64_field(req, "tiles_recv");
      s.bytes_recv = u64_field(req, "bytes_recv");
      s.recv_corrupt = u64_field(req, "recv_corrupt");
      s.spill_out = u64_field(req, "spill_out");
      s.spill_in = u64_field(req, "spill_in");
      std::lock_guard lk(mu_);
      stats_[rank] = s;
    } else if (op == "dist_done") {
      const int rank = static_cast<int>(num_field(req, "rank"));
      const serve::JsonValue* okv = req.find("worker_ok");
      const bool ok = okv != nullptr && okv->is_bool() && okv->as_bool();
      std::lock_guard lk(mu_);
      ++done_count_;
      if (!ok) {
        const serve::JsonValue* msg = req.find("message");
        failures_.push_back("rank " + std::to_string(rank) + ": " +
                            (msg != nullptr && msg->is_string() ? msg->as_string()
                                                                : "unknown error"));
      }
      cv_.notify_all();
    } else {
      return serve::wire_error("unknown op: " + op);
    }
    return serve::JsonValue(std::move(resp)).dump();
  } catch (const std::exception& e) {
    return serve::wire_error(e.what());
  }
}

bool Coordinator::all_ok() const {
  std::lock_guard lk(mu_);
  return done_count_ == nprocs_ && failures_.empty();
}

std::vector<std::string> Coordinator::failures() const {
  std::lock_guard lk(mu_);
  return failures_;
}

RankStats Coordinator::total_stats() const {
  std::lock_guard lk(mu_);
  RankStats total;
  for (const auto& [rank, s] : stats_) {
    total.tiles_sent += s.tiles_sent;
    total.bytes_sent += s.bytes_sent;
    total.tiles_recv += s.tiles_recv;
    total.bytes_recv += s.bytes_recv;
    total.recv_corrupt += s.recv_corrupt;
    total.spill_out += s.spill_out;
    total.spill_in += s.spill_in;
  }
  return total;
}

CoordClient::CoordClient(std::uint16_t port, int rank) : rank_(rank) {
  GSX_REQUIRE(client_.dial_tcp("127.0.0.1", port),
              "CoordClient: cannot reach the coordinator");
}

serve::JsonValue CoordClient::request(const std::string& line) {
  std::string response;
  GSX_REQUIRE(client_.request(line, &response),
              "CoordClient: coordinator connection lost");
  serve::JsonValue v = serve::JsonValue::parse(response);
  const serve::JsonValue* ok = v.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    const serve::JsonValue* err = v.find("error");
    GSX_REQUIRE(false, "CoordClient: coordinator error: " +
                           (err != nullptr && err->is_string() ? err->as_string()
                                                               : response));
  }
  return v;
}

int CoordClient::register_rank(std::uint16_t data_port) {
  serve::JsonValue::Object o;
  o["op"] = "dist_register";
  o["rank"] = rank_;
  o["data_port"] = static_cast<std::size_t>(data_port);
  const serve::JsonValue v = request(serve::JsonValue(std::move(o)).dump());
  const serve::JsonValue* n = v.find("nprocs");
  GSX_REQUIRE(n != nullptr && n->is_number(), "dist_register: bad response");
  return static_cast<int>(n->as_number());
}

std::map<int, std::uint16_t> CoordClient::wait_peers() {
  for (;;) {
    serve::JsonValue::Object o;
    o["op"] = "dist_peers";
    const serve::JsonValue v = request(serve::JsonValue(std::move(o)).dump());
    const serve::JsonValue* ready = v.find("ready");
    if (ready != nullptr && ready->is_bool() && ready->as_bool()) {
      const serve::JsonValue* peers = v.find("peers");
      GSX_REQUIRE(peers != nullptr && peers->is_object(), "dist_peers: bad response");
      std::map<int, std::uint16_t> out;
      for (const auto& [rank, port] : peers->as_object())
        out[std::stoi(rank)] = static_cast<std::uint16_t>(port.as_number());
      return out;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void CoordClient::barrier(std::uint64_t epoch) {
  serve::JsonValue::Object o;
  o["op"] = "dist_barrier";
  o["rank"] = rank_;
  o["epoch"] = static_cast<std::size_t>(epoch);
  request(serve::JsonValue(std::move(o)).dump());
}

double CoordClient::allreduce_sum(std::uint64_t epoch, double value) {
  serve::JsonValue::Object o;
  o["op"] = "dist_reduce";
  o["rank"] = rank_;
  o["epoch"] = static_cast<std::size_t>(epoch);
  o["value"] = value;
  const serve::JsonValue v = request(serve::JsonValue(std::move(o)).dump());
  const serve::JsonValue* sum = v.find("sum");
  GSX_REQUIRE(sum != nullptr && sum->is_number(), "dist_reduce: bad response");
  return sum->as_number();
}

void CoordClient::heartbeat(std::uint64_t seq, double queue_depth, double inflight) {
  serve::JsonValue::Object o;
  o["op"] = "dist_heartbeat";
  o["rank"] = rank_;
  o["seq"] = static_cast<std::size_t>(seq);
  o["queue_depth"] = queue_depth;
  o["inflight"] = inflight;
  const std::string line = serve::JsonValue(std::move(o)).dump();
  const double t0 = obs::now_seconds();
  GSX_FLIGHT(obs::EventKind::HeartbeatSend, 0, seq, 0, 0.0);
  request(line);
  GSX_FLIGHT(obs::EventKind::HeartbeatAck, 0, seq, 0, obs::now_seconds() - t0);
}

void CoordClient::report_stats(const RankStats& s) {
  serve::JsonValue::Object o;
  o["op"] = "dist_stats";
  o["rank"] = rank_;
  o["tiles_sent"] = static_cast<std::size_t>(s.tiles_sent);
  o["bytes_sent"] = static_cast<std::size_t>(s.bytes_sent);
  o["tiles_recv"] = static_cast<std::size_t>(s.tiles_recv);
  o["bytes_recv"] = static_cast<std::size_t>(s.bytes_recv);
  o["recv_corrupt"] = static_cast<std::size_t>(s.recv_corrupt);
  o["spill_out"] = static_cast<std::size_t>(s.spill_out);
  o["spill_in"] = static_cast<std::size_t>(s.spill_in);
  request(serve::JsonValue(std::move(o)).dump());
}

void CoordClient::done(bool ok, const std::string& message) {
  serve::JsonValue::Object o;
  o["op"] = "dist_done";
  o["rank"] = rank_;
  o["worker_ok"] = ok;
  o["message"] = message;
  request(serve::JsonValue(std::move(o)).dump());
}

}  // namespace gsx::dist
