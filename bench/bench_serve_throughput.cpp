// Serving throughput: cached-factor batched prediction vs the
// assemble+factorize-per-call baseline.
//
// The serving subsystem's bet is that a fitted model's O(n^3) factorization
// is paid once at load, leaving each request an O(n^2 m) solve that can be
// micro-batched. This bench measures requests/s and per-request latency
// (p50/p99/p999) across concurrency levels and solver worker counts, against
// GsxModel::predict (which assembles and factors Sigma_nn on every call).
//
// With --fleet N it instead benchmarks the sharded serving fleet: for each
// replica count k = 1..N it stands up k in-process replicas plus a router,
// loads two models per replica from a shared checkpoint store, and runs 8
// closed-loop predict clients through the router socket for a fixed time.
// It reports aggregate req/s, p50/p99 latency and the median of each hop —
// the router hop (client latency minus the replica's total) and the
// replica's queue/assemble/solve — vs replica count, all emitted as
// gsx-bench-v1 records. At the widest fleet, unscraped passes alternate with
// passes under a federated-scrape hammer, five pairs, to measure the cost of
// observing the fleet: the median of the pairs' overheads and its quartiles.
//
//   bench_serve_throughput [--json FILE] [--fleet N]   (GSX_BENCH_SCALE scales n)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_utils.hpp"
#include "core/model.hpp"
#include "geostat/kernel_registry.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"
#include "serve/engine.hpp"
#include "serve/listener.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace {

using namespace gsx;

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::vector<geostat::Location> request_points(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<geostat::Location> pts(m);
  for (auto& l : pts) {
    l.x = rng.uniform();
    l.y = rng.uniform();
  }
  return pts;
}

/// One predict through the fleet: the client's round trip and the replica's
/// `timing` object from the response.
struct FleetSample {
  double latency = 0.0;
  double queue = 0.0, assemble = 0.0, solve = 0.0, total = 0.0;
};

/// Parse the replica's timing fields out of an ok predict response.
bool read_timing(const std::string& response, FleetSample* s) {
  const serve::JsonValue r = serve::JsonValue::parse(response);
  const serve::JsonValue* ok = r.find("ok");
  const serve::JsonValue* timing = r.find("timing");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || timing == nullptr)
    return false;
  const auto field = [timing](const char* key, double* out) {
    const serve::JsonValue* v = timing->find(key);
    if (v == nullptr || !v->is_number()) return false;
    *out = v->as_number();
    return true;
  };
  return field("queue_seconds", &s->queue) &&
         field("assemble_seconds", &s->assemble) &&
         field("solve_seconds", &s->solve) && field("total_seconds", &s->total);
}

/// What one fixed-time pass measured.
struct FleetPass {
  double seconds = 0.0;  ///< measured wall time
  double rps = 0.0;
  double p50 = 0.0, p99 = 0.0;
  std::size_t samples = 0;
  std::size_t beyond_p99 = 0;  ///< samples slower than p99
  double hop = 0.0, queue = 0.0, assemble = 0.0, solve = 0.0;  ///< medians
};

/// --fleet N: router + k replicas per point, k = 1..N. Returns exit status.
int run_fleet_bench(std::size_t max_replicas, const std::string& json) {
  // The daemons run with recording on; the scrape-overhead cell is only
  // meaningful if the bench fleet pays the same instrumentation cost.
  obs::set_enabled(true);
  const std::size_t n = bench::scaled(600);
  const std::size_t points_per_request = 4;
  const std::size_t client_threads = 8;
  // Long enough that hundreds of samples lie beyond p99.
  const double pass_seconds = 5.0;
  const std::vector<double> theta{1.0, 0.1, 0.5};

  bench::print_header("Sharded serving fleet: aggregate throughput vs replica "
                      "count (n = " + std::to_string(n) + ")");
  const bench::SpaceProblem p = bench::make_space_problem(n, 0.1);

  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::DenseFP64;
  cfg.tile_size = 96;
  cfg.calibrate_perf_model = false;
  const core::GsxModel model(geostat::make_kernel("matern", theta), cfg);

  // One checkpoint in a shared store, served under one model name per shard
  // ("load" with a relative path resolves against each replica's --store).
  const std::string store =
      (std::filesystem::temp_directory_path() /
       ("gsx_bench_store_" + std::to_string(::getpid()))).string();
  std::filesystem::create_directories(store);
  {
    serve::ModelCheckpoint ckpt;
    ckpt.kernel = "matern";
    ckpt.theta = theta;
    ckpt.config = cfg;
    ckpt.train_locs = p.locs;
    ckpt.z_train = p.z;
    ckpt.factor = model.factor_at(theta, p.locs);
    serve::save_model_checkpoint(store + "/shared.ckpt", ckpt);
  }

  std::vector<bench::BenchRecord> records;
  for (std::size_t k = 1; k <= max_replicas; ++k) {
    std::vector<std::unique_ptr<serve::Server>> replicas;
    std::vector<std::thread> loops;
    serve::RouterConfig rcfg;
    rcfg.stale_after_seconds = 60.0;  // no announcers in-process; never expire
    serve::Router router(rcfg);
    for (std::size_t i = 0; i < k; ++i) {
      serve::ServerConfig scfg;
      scfg.workers = 1;
      scfg.store_dir = store;
      replicas.push_back(std::make_unique<serve::Server>(scfg));
      const std::uint16_t port = replicas.back()->listen();
      loops.emplace_back([s = replicas.back().get()] { s->serve_forever(); });
      router.membership().join("r" + std::to_string(i), "127.0.0.1", port);
    }
    const std::uint16_t router_port = router.listen();
    loops.emplace_back([&router] { router.serve_forever(); });

    const std::size_t models = 2 * k;  // a couple of shards per replica
    {
      serve::WireClient admin;
      if (!admin.dial_tcp("127.0.0.1", router_port)) return 1;
      for (std::size_t m = 0; m < models; ++m) {
        std::string response;
        if (!admin.request("{\"op\":\"load\",\"name\":\"m" + std::to_string(m) +
                               "\",\"path\":\"shared.ckpt\"}",
                           &response))
          return 1;
      }
    }

    // One pass = every client closed-loop through the router for
    // pass_seconds; with `scrape` a background thread hammers the federated
    // fleet_metrics verb (every replica scraped per call) so the overhead of
    // observing the fleet under load is measurable rather than assumed.
    auto run_pass = [&](bool scrape, FleetPass* out) {
      std::atomic<bool> stop{false};
      std::thread scraper;
      if (scrape) {
        scraper = std::thread([&] {
          serve::WireClient c;
          if (!c.dial_tcp("127.0.0.1", router_port)) return;
          std::string response;
          while (!stop.load(std::memory_order_acquire)) {
            if (!c.request("{\"op\":\"fleet_metrics\"}", &response)) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        });
      }
      std::vector<std::vector<FleetSample>> per_client(client_threads);
      std::atomic<std::size_t> failed{0};
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < client_threads; ++c) {
        clients.emplace_back([&, c] {
          serve::WireClient client;
          if (!client.dial_tcp("127.0.0.1", router_port)) {
            ++failed;
            return;
          }
          for (std::size_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
            const std::size_t r = c + client_threads * i;
            const auto pts = request_points(points_per_request, 900 + r);
            std::string req = "{\"op\":\"predict\",\"model\":\"m" +
                              std::to_string(r % models) + "\",\"points\":[";
            for (std::size_t j = 0; j < pts.size(); ++j) {
              if (j) req += ",";
              req += "[" + std::to_string(pts[j].x) + "," +
                     std::to_string(pts[j].y) + "]";
            }
            req += "]}";
            const auto r0 = std::chrono::steady_clock::now();
            std::string response;
            const bool io_ok = client.request(req, &response);
            FleetSample s;
            s.latency = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - r0).count();
            if (!io_ok || !read_timing(response, &s)) {
              ++failed;
              return;
            }
            per_client[c].push_back(s);
          }
        });
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(pass_seconds));
      stop.store(true, std::memory_order_release);
      for (auto& t : clients) t.join();
      const double wall = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - t0).count();
      if (scraper.joinable()) scraper.join();

      std::vector<double> latency, hop, queue, assemble, solve;
      for (const auto& samples : per_client)
        for (const FleetSample& s : samples) {
          latency.push_back(s.latency);
          hop.push_back(s.latency - s.total);
          queue.push_back(s.queue);
          assemble.push_back(s.assemble);
          solve.push_back(s.solve);
        }
      if (failed.load() > 0 || latency.empty()) {
        std::printf("  !! %zu fleet requests failed at k=%zu\n", failed.load(), k);
        return false;
      }
      out->seconds = wall;
      out->rps = static_cast<double>(latency.size()) / wall;
      out->p50 = percentile(latency, 0.50);
      out->p99 = percentile(latency, 0.99);
      out->samples = latency.size();
      out->beyond_p99 = static_cast<std::size_t>(std::count_if(
          latency.begin(), latency.end(), [&](double l) { return l > out->p99; }));
      out->hop = percentile(hop, 0.50);
      out->queue = percentile(queue, 0.50);
      out->assemble = percentile(assemble, 0.50);
      out->solve = percentile(solve, 0.50);
      return true;
    };
    auto print_pass = [](const char* label, const FleetPass& f) {
      std::printf("%-26s %9.1f req/s  p50 %6.3f ms  p99 %6.3f ms (%zu of %zu beyond)\n",
                  label, f.rps, 1e3 * f.p50, 1e3 * f.p99, f.beyond_p99, f.samples);
      std::printf("%-26s hop %6.3f ms  queue %6.3f ms  assemble %6.3f ms  "
                  "solve %6.3f ms\n",
                  "", 1e3 * f.hop, 1e3 * f.queue, 1e3 * f.assemble, 1e3 * f.solve);
    };

    FleetPass plain;
    bool pass_ok = run_pass(false, &plain);

    // At the widest fleet, measure the cost of scraping under load. One
    // pass pair read anywhere from -3% to +6% run to run, so unscraped and
    // scraped passes alternate and each pair gives one overhead; a drift of
    // the host across the run lands on both sides of a pair. The k-row's
    // unscraped pass opens the first pair.
    constexpr std::size_t kScrapePairs = 5;
    std::vector<FleetPass> scraped;
    std::vector<double> overhead;
    for (std::size_t pair = 0; pass_ok && k == max_replicas && pair < kScrapePairs; ++pair) {
      FleetPass base = plain;
      FleetPass s;
      pass_ok = (pair == 0 || run_pass(false, &base)) && run_pass(true, &s);
      if (!pass_ok) break;
      scraped.push_back(s);
      overhead.push_back((base.rps - s.rps) / base.rps);
    }

    router.shutdown();
    for (auto& r : replicas) r->shutdown();
    for (auto& t : loops) t.join();
    if (!pass_ok) return 1;

    char label[64];
    std::snprintf(label, sizeof label, "fleet replicas=%zu", k);
    print_pass(label, plain);
    const std::string name(label);
    records.push_back({name + " req/s", n, plain.seconds, plain.rps});
    records.push_back({name + " p50 seconds", n, plain.p50, 0.0});
    records.push_back({name + " p99 seconds", n, plain.p99, 0.0});
    records.push_back({name + " router hop seconds", n, plain.hop, 0.0});
    records.push_back({name + " replica queue seconds", n, plain.queue, 0.0});
    records.push_back({name + " replica assemble seconds", n, plain.assemble, 0.0});
    records.push_back({name + " replica solve seconds", n, plain.solve, 0.0});
    if (!scraped.empty()) {
      std::vector<double> scraped_rps;
      for (const FleetPass& f : scraped) scraped_rps.push_back(f.rps);
      std::snprintf(label, sizeof label, "fleet k=%zu scraped", k);
      print_pass(label, scraped.front());
      const double q1 = percentile(overhead, 0.25);
      const double med = percentile(overhead, 0.50);
      const double q3 = percentile(overhead, 0.75);
      std::printf("%-26s %+.2f%% of req/s [q1 %+.2f%%, q3 %+.2f%%] over %zu pairs\n",
                  "scrape-under-load overhead", 1e2 * med, 1e2 * q1, 1e2 * q3,
                  overhead.size());
      records.push_back({std::string(label) + " req/s", n, pass_seconds,
                         percentile(scraped_rps, 0.50)});
      records.push_back({"fleet scrape-under-load overhead fraction", n, med, 0.0, "fraction"});
      records.push_back(
          {"fleet scrape-under-load overhead q1 fraction", n, q1, 0.0, "fraction"});
      records.push_back(
          {"fleet scrape-under-load overhead q3 fraction", n, q3, 0.0, "fraction"});
    }
  }

  std::filesystem::remove_all(store);
  bench::print_rule();
  if (!json.empty()) bench::write_bench_json(json, records);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--fleet" && i + 1 < argc)
      return run_fleet_bench(std::stoul(argv[i + 1]),
                             bench::json_out_path(argc, argv));

  const std::size_t n = bench::scaled(2000);
  const std::size_t points_per_request = 4;
  const std::size_t requests = bench::scaled(64);
  const std::vector<double> theta{1.0, 0.1, 0.5};

  bench::print_header("Prediction serving: cached factor + micro-batching vs "
                      "factorize-per-call (n = " + std::to_string(n) + ")");
  const bench::SpaceProblem p = bench::make_space_problem(n, 0.1);

  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::DenseFP64;
  cfg.tile_size = 160;
  cfg.workers = 2;
  cfg.calibrate_perf_model = false;
  const core::GsxModel model(geostat::make_kernel("matern", theta), cfg);

  std::vector<bench::BenchRecord> records;

  // --- baseline: every request assembles and factors Sigma_nn ---------------
  const std::size_t baseline_reps = std::max<std::size_t>(2, bench::scaled(3));
  double baseline_total = 0.0;
  for (std::size_t r = 0; r < baseline_reps; ++r) {
    const auto pts = request_points(points_per_request, 40 + r);
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = model.predict(theta, p.locs, p.z, pts, true);
    baseline_total += std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    if (out.mean.empty()) return 1;
  }
  const double baseline_per_request = baseline_total / static_cast<double>(baseline_reps);
  std::printf("%-34s %10.4f s/request %12.2f req/s\n", "baseline (factorize per call)",
              baseline_per_request, 1.0 / baseline_per_request);
  records.push_back({"baseline per-request seconds", n, baseline_per_request, 0.0});

  // --- serving path: factor once, then batched concurrent solves ------------
  serve::ModelCheckpoint ckpt;
  ckpt.kernel = "matern";
  ckpt.theta = theta;
  ckpt.config = cfg;
  ckpt.train_locs = p.locs;
  ckpt.z_train = p.z;
  {
    const auto t0 = std::chrono::steady_clock::now();
    ckpt.factor = model.factor_at(theta, p.locs);
    const double load_s = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    std::printf("%-34s %10.4f s (one-time)\n", "factorization at load", load_s);
    records.push_back({"factor once at load seconds", n, load_s, 0.0});
  }
  const auto loaded = serve::LoadedModel::from_checkpoint("bench", std::move(ckpt));

  double best_per_request = 1e300;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t concurrency :
         {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      serve::KrigingEngine engine(
          serve::EngineConfig{workers, requests + concurrency, 65536});

      std::vector<double> latencies(requests);
      std::atomic<std::size_t> next{0};
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> submitters;
      for (std::size_t c = 0; c < concurrency; ++c) {
        submitters.emplace_back([&] {
          for (std::size_t r = next.fetch_add(1); r < requests;
               r = next.fetch_add(1)) {
            const auto pts = request_points(points_per_request, 900 + r);
            const auto out = engine.submit(loaded, pts, true).get();
            latencies[r] = out.ok ? out.total_seconds : -1.0;
          }
        });
      }
      for (auto& t : submitters) t.join();
      const double wall = std::chrono::duration<double>(
          std::chrono::steady_clock::now() - t0).count();
      engine.drain();

      std::size_t failed = 0;
      for (const double l : latencies)
        if (l < 0) ++failed;
      if (failed > 0) std::printf("  !! %zu requests failed\n", failed);

      const double rps = static_cast<double>(requests) / wall;
      const double p50 = percentile(latencies, 0.50);
      const double p99 = percentile(latencies, 0.99);
      const double p999 = percentile(latencies, 0.999);
      const double per_request = wall / static_cast<double>(requests);
      best_per_request = std::min(best_per_request, per_request);

      char label[96];
      std::snprintf(label, sizeof label, "engine w=%zu c=%zu", workers, concurrency);
      std::printf("%-34s %10.2f req/s   p50 %8.2f ms   p99 %8.2f ms   p999 %8.2f ms\n",
                  label, rps, 1e3 * p50, 1e3 * p99, 1e3 * p999);
      records.push_back({std::string(label) + " req/s", n, wall, rps});
      records.push_back({std::string(label) + " p50 seconds", n, p50, 0.0});
      records.push_back({std::string(label) + " p99 seconds", n, p99, 0.0});
      records.push_back({std::string(label) + " p999 seconds", n, p999, 0.0});
    }
  }

  const double speedup = baseline_per_request / best_per_request;
  bench::print_rule();
  std::printf("cached-factor speedup per request: %.1fx %s\n", speedup,
              speedup >= 5.0 ? "(>= 5x target met)" : "(below 5x target!)");
  records.push_back({"speedup vs factorize-per-call", n, speedup, 0.0});

  const std::string json = bench::json_out_path(argc, argv);
  if (!json.empty()) bench::write_bench_json(json, records);
  return 0;
}
