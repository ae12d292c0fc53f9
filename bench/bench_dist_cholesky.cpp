// Distributed tile Cholesky: factorization time and bytes-on-wire vs process
// count and precision policy (ranks as in-process threads, same code path as
// gsx_dist workers minus fork/exec). The interesting column is bytes_sent:
// MP ships FP32/FP16 panels and TLR ships U/V factors, so the paper's
// memory-footprint win shows up directly as wire-byte reduction vs all-FP64.
//
//   bench_dist_cholesky [--n N] [--tile T] [--json FILE]
//
// JSON records (gsx-bench-v1): "dist/<policy>/p<K>" carries seconds;
// "wire-bytes/<policy>/p<K>" carries total bytes on the wire in `size`.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench_utils.hpp"
#include "dist/coordinator.hpp"
#include "dist/dist_cholesky.hpp"
#include "la/gemm_kernel.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "obs/flops.hpp"
#include "obs/hwcounters.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace gsx;

struct RunOutcome {
  double seconds = 0.0;         // rank-max factorization time
  std::uint64_t wire_bytes = 0; // total bytes shipped between ranks
};

RunOutcome run_once(const dist::DistProblemConfig& prob, int nprocs,
                    dist::DistPolicy policy) {
  dist::Coordinator coord(nprocs);
  const std::uint16_t port = coord.start();
  std::vector<std::thread> threads;
  std::vector<dist::DistResult> results(static_cast<std::size_t>(nprocs));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r)
    threads.emplace_back([&, r] {
      try {
        dist::DistRunConfig cfg;
        cfg.rank = r;
        cfg.nprocs = nprocs;
        cfg.coord_port = port;
        cfg.workers = 2;
        cfg.policy = policy;
        results[static_cast<std::size_t>(r)] = dist::run_dist_rank(prob, cfg);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  coord.stop();
  RunOutcome out;
  for (const dist::DistResult& res : results) {
    out.seconds = std::max(out.seconds, res.factor_seconds);
    out.wire_bytes += res.stats.bytes_sent;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Execution analytics for the summary block: task DAG history lands in the
  // flight rings (all in-process ranks share one recorder; per-run graph
  // generations keep them separable) and hw counters feed the roofline line.
  obs::set_enabled(true);
  obs::set_hw_enabled(true);
  obs::RooflinePeaks peaks;
  for (std::size_t p = 0; p < kNumPrecisions; ++p)
    peaks.peak_gflops_per_ghz[p] = la::gemm_peak_gflops(static_cast<Precision>(p), 1.0);
  peaks.fallback_ghz = la::measure_clock_ghz();
  peaks.isa = la::gemm_dispatch_info().isa;
  obs::set_roofline_peaks(peaks);

  dist::DistProblemConfig prob;
  prob.n = 512;
  prob.tile_size = 64;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--n") prob.n = std::stoul(argv[i + 1]);
    if (arg == "--tile") prob.tile_size = std::stoul(argv[i + 1]);
  }

  const std::vector<int> proc_counts = {1, 2, 4};
  const std::vector<dist::DistPolicy> policies = {
      dist::DistPolicy::Dense, dist::DistPolicy::MixedPrecision,
      dist::DistPolicy::Tlr};

  std::vector<bench::BenchRecord> records;
  std::printf("distributed Cholesky, n=%zu tile=%zu\n", prob.n, prob.tile_size);
  std::printf("%-8s %6s %12s %14s\n", "policy", "procs", "seconds", "wire bytes");
  for (const dist::DistPolicy policy : policies) {
    for (const int p : proc_counts) {
      const RunOutcome out = run_once(prob, p, policy);
      const std::string tag =
          std::string(dist::dist_policy_name(policy)) + "/p" + std::to_string(p);
      std::printf("%-8s %6d %12.4f %14llu\n", dist::dist_policy_name(policy), p,
                  out.seconds, static_cast<unsigned long long>(out.wire_bytes));
      records.push_back({"dist/" + tag, prob.n, out.seconds, 0.0});
      records.push_back({"wire-bytes/" + tag,
                         static_cast<std::size_t>(out.wire_bytes), out.seconds,
                         0.0});
    }
  }

  // Execution-analytics summary over every run above (graph generations in
  // the flight history keep the per-run DAGs separable; the critical path
  // reported is the longest chain of the slowest graph).
  const obs::AnalyticsReport analytics =
      obs::analyze(obs::build_history(obs::FlightRecorder::instance().snapshot()));
  const obs::HwTotals hw = obs::hw_totals();
  const obs::RooflinePeaks rp = obs::roofline_peaks();
  const double ghz = hw.live ? hw.effective_ghz() : rp.fallback_ghz;
  const double achieved = obs::flop_snapshot().gflops_at(Precision::FP64);
  const double peak = rp.peak_gflops_per_ghz[static_cast<std::size_t>(
                          Precision::FP64)] * ghz;
  const double roofline_pct = peak > 0.0 ? 100.0 * achieved / peak : 0.0;
  std::printf("\nexecution analytics (all runs):\n");
  std::printf("  critical path      %.4f s over %zu tasks (dominance %.1f%%)\n",
              analytics.critical_path.length_seconds,
              analytics.critical_path.length_tasks,
              100.0 * analytics.critical_path.dominance);
  std::printf("  parallel efficiency %.1f%%  jain %.3f\n",
              100.0 * analytics.utilization.parallel_efficiency,
              analytics.utilization.jain_fairness);
  std::printf("  comm overlap       %.1f%% of %zu wire events\n",
              100.0 * analytics.overlap.overlap_fraction,
              analytics.overlap.comm_events);
  std::printf("  roofline (FP64)    %.1f%% of peak (%s, hwcounters %s)\n",
              roofline_pct, rp.isa.c_str(),
              hw.live ? "live" : (obs::hw_available() ? "off" : "unavailable"));

  const std::string json = bench::json_out_path(argc, argv);
  if (!json.empty()) {
    // Splice the roofline line into the analytics object so the bench JSON
    // carries the full summary block.
    std::string a = obs::analytics_json(analytics, "  ");
    char roofline[256];
    std::snprintf(roofline, sizeof roofline,
                  "{\"roofline\": {\"fp64_pct_of_peak\": %.6g, \"hwcounters\": "
                  "\"%s\"}, ",
                  roofline_pct,
                  hw.live ? "live" : (obs::hw_available() ? "off" : "unavailable"));
    a.replace(0, 1, roofline);
    bench::write_bench_json(json, records, a);
  }
  return 0;
}
