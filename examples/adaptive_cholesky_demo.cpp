// Adaptive Cholesky internals: decision heat maps, the Algorithm-2 band
// auto-tuning, the task DAG the runtime executes, and its first tasks read
// back from the flight recorder.
//
//   $ ./examples/adaptive_cholesky_demo
#include <cinttypes>
#include <cstdio>

#include "cholesky/factorize.hpp"
#include "core/model.hpp"
#include "geostat/assemble.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
#include "perfmodel/band_tuner.hpp"

int main() {
  using namespace gsx;

  const std::size_t n = 768;
  const std::size_t ts = 64;
  Rng rng(1);
  auto locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance proto(1.0, 0.05, 0.5, 1e-6);

  std::printf("== decision map at n=%zu, tile %zu (D/S/H dense FP64/32/16; L/l low-rank "
              "FP64/32) ==\n", n, ts);
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDenseTLR;
  cfg.tile_size = ts;
  cfg.workers = 2;
  cfg.auto_band = true;
  core::GsxModel model(proto.clone(), cfg);
  core::EvalBreakdown bd;
  const tile::SymTileMatrix decided =
      model.build_decision_matrix(proto.params(), locs, &bd);
  for (const auto& row : decided.decision_map()) std::printf("  %s\n", row.c_str());
  std::printf("auto-tuned band_size_dense = %zu; footprint %.2f of %.2f MiB\n",
              bd.band_size_dense, bd.footprint_bytes / 1048576.0,
              bd.dense_fp64_bytes / 1048576.0);

  std::printf("\n== factorization through the task runtime ==\n");
  tile::SymTileMatrix a(n, ts);
  geostat::fill_covariance_tiles(a, proto, locs, 2);
  cholesky::PrecisionPolicy policy;
  policy.rule = cholesky::PrecisionRule::AdaptiveFrobenius;
  cholesky::apply_precision_policy(a, policy);

  cholesky::FactorOptions fopt;
  fopt.workers = 2;
  const cholesky::FactorReport rep = cholesky::tile_cholesky_dense(a, fopt);
  std::printf("info=%d  tasks=%zu  edges=%zu  critical path=%zu tasks\n", rep.info,
              rep.graph.num_tasks, rep.graph.num_edges, rep.graph.critical_path_tasks);
  std::printf("makespan %.4fs, total task time %.4fs, parallel efficiency %.0f%% at 2 "
              "workers\n",
              rep.graph.makespan_seconds, rep.graph.total_task_seconds,
              100.0 * rep.graph.parallel_efficiency(2));

  // Every task-graph run records its tasks in the flight rings; decode them
  // back into the executed DAG. The factorization is the latest graph.
  const obs::ExecutionHistory h =
      obs::build_history(obs::FlightRecorder::instance().snapshot());
  if (h.graphs.empty()) {
    std::printf("\n(no task history: the flight recorder is compiled out)\n");
    return 0;
  }
  const obs::GraphExec& g = h.graphs.back();
  const obs::CriticalPathReport cp = obs::critical_path(g);
  std::printf("duration-weighted critical path (flight events): %zu tasks / %.4fs%s\n",
              cp.length_tasks, cp.length_seconds,
              cp.complete ? "" : " (history incomplete)");
  const double t0 = g.tasks.begin()->second.start;
  std::printf("\nfirst ten tasks (task, op, worker, start ms, end ms):\n");
  std::size_t shown = 0;
  for (const auto& [id, t] : g.tasks) {
    if (shown++ == 10) break;
    std::printf("  %4" PRIu64 " %-6s worker %" PRIu64 "  %8.3f -> %8.3f\n", id, t.op.c_str(),
                t.worker, (t.start - t0) * 1e3, (t.end - t0) * 1e3);
  }
  return 0;
}
