// predict-fleet workload: closed-loop predict clients plus a hot-swapping
// writer against an in-process router in front of three replicas.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/model.hpp"
#include "e2e.hpp"
#include "geostat/field.hpp"
#include "geostat/kernel_registry.hpp"
#include "geostat/locations.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"
#include "serve/listener.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace gsx::e2e {

namespace {

using geostat::Location;
using serve::JsonValue;

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kModels = 6;
constexpr std::size_t kClients = 4;
constexpr std::size_t kPointsPerRequest = 4;
constexpr std::size_t kVerifyRequests = 16;
const std::vector<double> kTheta{1.0, 0.1, 0.5};

/// Router + replicas on loopback, each serve loop on its own thread.
class Fleet {
 public:
  explicit Fleet(const std::string& store) {
    serve::RouterConfig rcfg;
    rcfg.stale_after_seconds = 3600.0;  // no heartbeat announcers in-process
    router_ = std::make_unique<serve::Router>(rcfg);
    try {
      for (std::size_t i = 0; i < kReplicas; ++i) {
        serve::ServerConfig scfg;
        scfg.workers = 1;
        scfg.store_dir = store;
        replicas_.push_back(std::make_unique<serve::Server>(scfg));
        const std::uint16_t port = replicas_.back()->listen();
        loops_.emplace_back([s = replicas_.back().get()] { s->serve_forever(); });
        router_->membership().join(std::string(1, 'r') += std::to_string(i), "127.0.0.1",
                                   port);
      }
      port_ = router_->listen();
      loops_.emplace_back([r = router_.get()] { r->serve_forever(); });
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void stop() {
    router_->shutdown();
    for (auto& r : replicas_) r->shutdown();
    for (auto& t : loops_) t.join();
    loops_.clear();
  }

  std::unique_ptr<serve::Router> router_;
  std::vector<std::unique_ptr<serve::Server>> replicas_;
  std::uint16_t port_ = 0;
  std::vector<std::thread> loops_;
};

std::string model_name(std::size_t i) {
  return std::string(1, 'm') += std::to_string(i % kModels);
}

std::string load_line(std::size_t i) {
  return "{\"op\":\"load\",\"name\":\"" + model_name(i) + "\",\"path\":\"shared.ckpt\"}";
}

std::vector<Location> random_points(Rng& rng) {
  std::vector<Location> pts(kPointsPerRequest);
  for (auto& p : pts) {
    p.x = rng.uniform();
    p.y = rng.uniform();
  }
  return pts;
}

std::string predict_line(std::size_t model, const std::vector<Location>& pts) {
  JsonValue::Array points;
  for (const Location& p : pts) points.emplace_back(JsonValue::Array{p.x, p.y});
  JsonValue::Object o;
  o["op"] = JsonValue("predict");
  o["model"] = JsonValue(model_name(model));
  o["points"] = JsonValue(std::move(points));
  o["variance"] = JsonValue(true);
  return JsonValue(std::move(o)).dump();
}

struct Sample {
  double end = 0.0;      ///< completion time since the loop started
  double latency = 0.0;  ///< client-side round trip
  bool ok = false;
  bool swap = false;     ///< a hot-swap load, not a predict
  // --trace only: the replica's timing object and identity.
  double queue = 0, assemble = 0, solve = 0, total = 0, batched = 0;
  std::string replica;
};

/// The replica's `timing` object and the router's `replica` field.
bool read_timing(const std::string& response, Sample& s) {
  const JsonValue r = JsonValue::parse(response);
  const JsonValue* timing = r.find("timing");
  const JsonValue* batched = r.find("batched_with");
  const JsonValue* replica = r.find("replica");
  if (timing == nullptr || batched == nullptr || replica == nullptr) return false;
  const auto field = [timing](const char* key) {
    const JsonValue* v = timing->find(key);
    return v != nullptr && v->is_number() ? v->as_number() : -1.0;
  };
  s.queue = field("queue_seconds");
  s.assemble = field("assemble_seconds");
  s.solve = field("solve_seconds");
  s.total = field("total_seconds");
  s.batched = batched->as_number();
  s.replica = replica->as_string();
  return s.queue >= 0 && s.assemble >= 0 && s.solve >= 0 && s.total >= 0;
}

/// One closed-loop client: next request only after the previous reply.
/// Client 0 also sends one hot-swap load per second of the measured phase.
void client_loop(std::size_t c, std::uint16_t port, std::uint64_t seed, bool trace,
                 double warmup, Clock::time_point t_begin, const std::atomic<bool>& stop,
                 std::vector<Sample>& out) {
  serve::WireClient client;
  if (!client.dial_tcp("127.0.0.1", port)) {
    out.push_back(Sample{});
    return;
  }
  Rng rng(seed * 7919 + c + 1);
  double next_swap = warmup;
  std::size_t swaps = 0;
  std::string response;
  while (!stop.load(std::memory_order_acquire)) {
    Sample s;
    s.swap = c == 0 && seconds_since(t_begin) >= next_swap;
    std::string line;
    if (s.swap) {
      line = load_line(swaps++);
      next_swap += 1.0;
    } else {
      line = predict_line(rng.next() % kModels, random_points(rng));
    }
    const Clock::time_point t0 = Clock::now();
    const bool io_ok = client.request(line, &response);
    s.latency = seconds_since(t0);
    s.end = seconds_since(t_begin);
    s.ok = io_ok && response.find("\"ok\":true") != std::string::npos;
    if (trace && s.ok && !s.swap) s.ok = read_timing(response, s);
    out.push_back(std::move(s));
    if (!io_ok) return;
  }
}

/// Stand up the fleet and load every model: the set-up a deployment pays.
/// Returns the resident bytes the replicas report for one loaded model.
std::size_t set_up(const core::GsxModel& model, std::span<const Location> locs,
                   std::span<const double> z, const std::string& store,
                   std::unique_ptr<Fleet>& fleet, Result& res) {
  serve::ModelCheckpoint ckpt;
  ckpt.kernel = "matern";
  ckpt.theta = kTheta;
  ckpt.config = model.config();
  ckpt.train_locs.assign(locs.begin(), locs.end());
  ckpt.z_train.assign(z.begin(), z.end());
  ckpt.factor = model.factor_at(kTheta, locs);
  serve::save_model_checkpoint(store + "/shared.ckpt", ckpt);
  fleet = std::make_unique<Fleet>(store);

  serve::WireClient admin;
  res.check(admin.dial_tcp("127.0.0.1", fleet->port()));
  std::size_t resident = 0;
  std::string response;
  for (std::size_t m = 0; m < kModels; ++m) {
    const bool ok = admin.request(load_line(m), &response) &&
                    response.find("\"ok\":true") != std::string::npos;
    const JsonValue r = ok ? JsonValue::parse(response) : JsonValue();
    const JsonValue* bytes = r.find("resident_bytes");
    res.check(bytes != nullptr);
    if (bytes != nullptr) resident = static_cast<std::size_t>(bytes->as_number());
  }
  return resident;
}

/// Predicts through the fleet must match in-process GsxModel::predict at the
/// same theta: the served factor is the checkpointed one, bit for bit.
void verify(const core::GsxModel& model, std::span<const Location> locs,
            std::span<const double> z, std::uint16_t port, std::uint64_t seed, Result& res) {
  serve::WireClient client;
  res.check(client.dial_tcp("127.0.0.1", port));
  Rng rng(seed ^ 0x7e51ull);
  double worst = 0.0;
  for (std::size_t i = 0; i < kVerifyRequests; ++i) {
    const std::vector<Location> pts = random_points(rng);
    std::string response;
    bool ok = client.request(predict_line(i, pts), &response) &&
              response.find("\"ok\":true") != std::string::npos;
    if (ok) {
      const geostat::KrigingResult ref = model.predict(kTheta, locs, z, pts, true);
      const JsonValue r = JsonValue::parse(response);
      const JsonValue* mean = r.find("mean");
      const JsonValue* var = r.find("variance");
      ok = mean != nullptr && var != nullptr && mean->as_array().size() == pts.size() &&
           var->as_array().size() == pts.size();
      for (std::size_t k = 0; ok && k < pts.size(); ++k) {
        // Means can sit near 0, so they are compared against the field's
        // standard deviation sqrt(sigma^2) = 1 as well.
        const double dm = rel_diff(mean->as_array()[k].as_number(), ref.mean[k], 1.0);
        const double dv = rel_diff(var->as_array()[k].as_number(), ref.variance[k]);
        worst = std::max({worst, dm, dv});
        ok = dm <= 1e-12 && dv <= 1e-12;
      }
    }
    res.check(ok);
  }
  std::printf("  verify: %zu predicts vs in-process GsxModel::predict, worst rel %.2e\n",
              kVerifyRequests, worst);
}

}  // namespace

Result run_fleet(const Options& opt) {
  // The daemons (tools/gsx_serve, tools/gsx_router) run with recording on.
  obs::set_enabled(true);
  Result res;
  res.n = opt.smoke ? 200 : 600;
  const double warmup = opt.smoke ? 0.2 : 2.0;

  Rng rng(opt.seed);
  std::vector<Location> locs = geostat::perturbed_grid_locations(res.n, rng);
  geostat::sort_morton(locs);
  const std::vector<double> z =
      geostat::simulate_grf(*geostat::make_kernel("matern", kTheta), locs, rng);

  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDense;
  cfg.tile_size = 128;
  cfg.workers = 1;
  cfg.calibrate_perf_model = false;
  const core::GsxModel model(geostat::make_kernel("matern", kTheta), cfg);

  const std::string store = "store";
  std::filesystem::create_directories(store);
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;
  std::size_t resident = 0;
  for (std::size_t i = 0; i < (opt.smoke ? 1 : 3); ++i) {
    fleet.reset();
    const Clock::time_point t = Clock::now();
    resident = set_up(model, locs, z, store, fleet, res);
    setup_s.push_back(seconds_since(t));
  }

  std::vector<std::vector<Sample>> per_client(kClients);
  std::atomic<bool> stop{false};
  const Clock::time_point t_begin = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        try {
          client_loop(c, fleet->port(), opt.seed, opt.trace, warmup, t_begin, stop,
                      per_client[c]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench_e2e: client %zu: %s\n", c, e.what());
          per_client[c].push_back(Sample{});  // counted as one failed operation
        }
      });
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup + opt.seconds));
    stop.store(true, std::memory_order_release);
  }
  verify(model, locs, z, fleet->port(), opt.seed, res);
  fleet.reset();

  std::vector<Sample> window;
  for (const auto& samples : per_client)
    for (const Sample& s : samples) {
      res.check(s.ok);
      if (s.ok && s.end >= warmup && s.end <= warmup + opt.seconds) window.push_back(s);
    }
  std::vector<double> latency, swap, hop, queue, assemble, solve, batched;
  std::map<std::string, std::size_t> by_replica;
  for (const Sample& s : window) {
    if (s.swap) {
      swap.push_back(s.latency);
      continue;
    }
    latency.push_back(s.latency);
    hop.push_back(s.latency - s.total);
    queue.push_back(s.queue);
    assemble.push_back(s.assemble);
    solve.push_back(s.solve);
    batched.push_back(s.batched);
    ++by_replica[s.replica];
  }
  res.check(!latency.empty());
  std::printf("  %zu predicts in %.1f s: p50 %.3f ms, p99 %.3f ms (%zu beyond); %zu swaps, "
              "median %.3f ms; setup median %.3f s\n",
              latency.size(), opt.seconds, 1e3 * median(latency),
              1e3 * quantile(latency, 0.99), latency.size() / 100, swap.size(),
              1e3 * median(swap), median(setup_s));

  if (!opt.trace) {
    res.set("setup_s", median(setup_s));
    res.set("op_median_s", median(latency));
    return res;
  }
  std::size_t busiest = 0;
  for (const auto& [name, count] : by_replica) busiest = std::max(busiest, count);
  double batch_sum = 0.0;
  for (const double b : batched) batch_sum += b;
  const auto predicts = static_cast<double>(std::max<std::size_t>(1, latency.size()));
  res.set("router.hop_s", median(hop));
  res.set("serve.predict_rps", static_cast<double>(latency.size()) / opt.seconds);
  res.set("serve.queue_s", median(queue));
  res.set("serve.assemble_s", median(assemble));
  res.set("serve.solve_s", median(solve));
  res.set("serve.batch_mean", batch_sum / predicts);
  res.set("serve.replica_share_max", static_cast<double>(busiest) / predicts);
  res.set("serve.p99_s", quantile(latency, 0.99));
  res.set("serve.swap_s", median(swap));
  res.set("serve.resident_mb", static_cast<double>(resident) / (1024.0 * 1024.0));
  res.set("la.dgemm_gflops", dgemm_gflops(cfg.tile_size, opt.seed));
  return res;
}

}  // namespace gsx::e2e
