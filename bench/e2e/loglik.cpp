// loglik-* workloads: GsxModel::evaluate along a theta-walk, and the
// layer-by-layer replay of the same evaluations (--trace).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/precision_policy.hpp"
#include "cholesky/tile_batch.hpp"
#include "cholesky/tile_solve.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "e2e.hpp"
#include "geostat/assemble.hpp"
#include "geostat/field.hpp"
#include "geostat/kernel_registry.hpp"
#include "geostat/likelihood.hpp"
#include "geostat/locations.hpp"
#include "la/blas.hpp"
#include "perfmodel/band_tuner.hpp"
#include "perfmodel/kernel_model.hpp"
#include "runtime/task_graph.hpp"

namespace gsx::e2e {

namespace {

using core::ComputeVariant;
using geostat::Location;
using tile::SymTileMatrix;

constexpr std::size_t kWorkers = 4;

struct Spec {
  ComputeVariant variant;
  std::size_t n;
  std::size_t tile;
  std::array<double, 3> theta0;  ///< (sigma^2, range, nu)
  bool walk_nu;                  ///< false: nu stays at theta0 (closed form)
};

Spec spec_for(const Options& opt) {
  Spec s{ComputeVariant::MPDense, 4096, 128, {1.0, 0.03, 0.8}, true};
  if (opt.workload == "loglik-tlr") {
    // At n = 4096 one evaluation compresses 496 tiles in ~8 s (4 cores),
    // which does not fit a run of ~10 s with repeated set-ups.
    s.variant = ComputeVariant::MPDenseTLR;
    s.n = 2048;
  } else if (opt.workload == "loglik-fine") {
    s.variant = ComputeVariant::DenseFP64;
    s.tile = 64;
    s.theta0[2] = 0.5;
    s.walk_nu = false;
  }
  if (opt.smoke) s.n = 512;
  return s;
}

core::ModelConfig config_for(const Spec& s) {
  core::ModelConfig cfg;
  cfg.variant = s.variant;
  cfg.tile_size = s.tile;
  cfg.workers = kWorkers;
  return cfg;
}

/// An optimizer-like sequence of parameter points near theta0: every step
/// draws each free parameter as theta0 * exp(0.05 N(0,1)). Anchoring on
/// theta0 (instead of a cumulative walk) keeps the per-step cost stationary,
/// so the median does not drift with the walk length.
class ThetaWalk {
 public:
  ThetaWalk(const Spec& s, std::uint64_t seed) : spec_(s), rng_(seed ^ 0x5eedf00dull) {}

  std::vector<double> next() {
    std::vector<double> t(spec_.theta0.begin(), spec_.theta0.end());
    for (std::size_t p = 0; p < t.size(); ++p) {
      const double step = std::exp(0.05 * rng_.normal());
      if (p < 2 || spec_.walk_nu) t[p] *= step;
    }
    return t;
  }

 private:
  Spec spec_;
  Rng rng_;
};

/// Relative distance of l(theta) from the dense LAPACK reference
/// (geostat::dense_loglik); infinite when either side failed.
double dense_rel_diff(std::span<const double> theta, std::span<const Location> locs,
                      std::span<const double> z, const geostat::LoglikValue& v) {
  const auto kernel = geostat::make_kernel("matern", theta);
  const geostat::LoglikValue ref = geostat::dense_loglik(*kernel, locs, z);
  return v.ok && ref.ok ? rel_diff(v.loglik, ref.loglik)
                        : std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------------------
// Replay: the steps GsxModel::prepare_and_factor + tile_loglik take, called
// one public function at a time so each layer gets its own clock.

struct Replay {
  double assemble = 0, compress = 0, tune = 0, revert = 0, policy = 0, factorize = 0,
         solve = 0;
  std::size_t elements = 0;
  cholesky::CompressStats cstats;
  std::size_t band = 0, kept = 0, max_rank = 0;
  double avg_rank = 0;
  cholesky::PolicyStats pstats;
  rt::GraphStats graph;
  geostat::LoglikValue value;
};

SymTileMatrix replay_prepare(const core::ModelConfig& cfg, std::span<const double> theta,
                             std::span<const Location> locs,
                             const perfmodel::KernelModel* perf, Replay& r) {
  SymTileMatrix a(locs.size(), cfg.tile_size);
  const auto kernel = geostat::make_kernel("matern", theta);
  Clock::time_point t = Clock::now();
  geostat::fill_covariance_tiles(a, *kernel, locs, cfg.workers);
  r.assemble = seconds_since(t);
  r.elements = a.dense_fp64_bytes() / sizeof(double);

  if (cfg.variant == ComputeVariant::MPDenseTLR) {
    cholesky::TlrCompressOptions copt;
    copt.tol = cfg.tlr_tol;
    copt.method = cfg.compression;
    copt.lr_fp32 = cfg.lr_fp32;
    copt.eps_target = cfg.eps_target;
    copt.band_size = 1;
    t = Clock::now();
    r.cstats = cholesky::compress_offband(a, copt, cfg.workers);
    r.compress = seconds_since(t);

    t = Clock::now();
    const perfmodel::BandDecision bd = perfmodel::tune_band_size(a, *perf, cfg.fluctuation);
    r.tune = seconds_since(t);
    r.band = std::max<std::size_t>(1, bd.band_size_dense);

    // The in-band revert GsxModel::prepare does after tuning.
    t = Clock::now();
    for (std::size_t j = 0; j < a.nt(); ++j)
      for (std::size_t i = j + 1; i < a.nt() && i - j < r.band; ++i)
        if (a.at(i, j).format() == tile::TileFormat::LowRank)
          a.at(i, j).assign_dense64(a.at(i, j).to_dense64());
    r.revert = seconds_since(t);

    std::size_t rank_sum = 0;
    for (std::size_t j = 0; j < a.nt(); ++j)
      for (std::size_t i = j + 1; i < a.nt(); ++i)
        if (a.at(i, j).format() == tile::TileFormat::LowRank) {
          ++r.kept;
          rank_sum += a.at(i, j).rank();
          r.max_rank = std::max(r.max_rank, a.at(i, j).rank());
        }
    r.avg_rank = r.kept ? static_cast<double>(rank_sum) / static_cast<double>(r.kept) : 0.0;
  }

  cholesky::PrecisionPolicy policy;
  policy.rule = cfg.variant == ComputeVariant::DenseFP64 ? cholesky::PrecisionRule::AllFP64
                                                         : cfg.mp_rule;
  policy.band = cfg.band;
  policy.eps_target = cfg.eps_target;
  policy.allow_fp16 = cfg.allow_fp16;
  policy.allow_bf16 = cfg.allow_bf16;
  t = Clock::now();
  r.pstats = cholesky::apply_precision_policy(a, policy);
  r.policy = seconds_since(t);
  return a;
}

cholesky::FactorReport factorize(const core::ModelConfig& cfg, SymTileMatrix& a,
                                 std::size_t workers) {
  cholesky::FactorOptions fopt;
  fopt.workers = workers;
  fopt.sched = cfg.sched;
  fopt.rounding = cfg.rounding;
  fopt.rule = cfg.variant == ComputeVariant::DenseFP64 ? cholesky::PrecisionRule::AllFP64
                                                       : cfg.mp_rule;
  return cfg.variant == ComputeVariant::MPDenseTLR
             ? cholesky::tile_cholesky_tlr(a, cfg.tlr_tol, fopt)
             : cholesky::tile_cholesky_dense(a, fopt);
}

void replay_factor(const core::ModelConfig& cfg, SymTileMatrix& a,
                   std::span<const double> z, Replay& r) {
  Clock::time_point t = Clock::now();
  const cholesky::FactorReport rep = factorize(cfg, a, cfg.workers);
  r.factorize = seconds_since(t);
  r.graph = rep.graph;
  if (rep.info != 0) return;
  t = Clock::now();
  r.value = cholesky::tile_loglik(a, z);
  r.solve = seconds_since(t);
}

/// The dense Cholesky DAG of an nt x nt tile matrix (same accesses and
/// priorities as cholesky::tile_cholesky_dense) with empty bodies: what the
/// scheduler alone costs per task.
double empty_dag_tasks_per_s(std::size_t nt, rt::SchedPolicy sched) {
  using rt::Access;
  const auto id = [nt](std::size_t i, std::size_t j) {
    return rt::DatumId::from_index(i * nt + j);
  };
  rt::TaskGraph g;
  g.set_policy(sched);
  for (std::size_t k = 0; k < nt; ++k) {
    const int base = 3 * static_cast<int>(nt - k);
    g.submit("potrf", {{id(k, k), Access::ReadWrite}}, [] {}, base + 2);
    for (std::size_t m = k + 1; m < nt; ++m)
      g.submit("trsm", {{id(k, k), Access::Read}, {id(m, k), Access::ReadWrite}}, [] {},
               base + 1);
    for (std::size_t m = k + 1; m < nt; ++m)
      g.submit("syrk", {{id(m, k), Access::Read}, {id(m, m), Access::ReadWrite}}, [] {},
               base);
    for (std::size_t n = k + 1; n < nt; ++n)
      for (std::size_t m0 = n + 1; m0 < nt; m0 += cholesky::kGemmBatchMax) {
        std::vector<rt::Dep> deps{{id(n, k), Access::Read}};
        for (std::size_t m = m0; m < std::min(nt, m0 + cholesky::kGemmBatchMax); ++m) {
          deps.push_back({id(m, k), Access::Read});
          deps.push_back({id(m, n), Access::ReadWrite});
        }
        g.submit("gemm", deps, [] {}, base);
      }
  }
  const Clock::time_point t = Clock::now();
  g.run(kWorkers);
  return static_cast<double>(g.size()) / seconds_since(t);
}

/// Same ranks and seed GsxModel::perf_model calibrates with.
perfmodel::KernelModel calibrate(const core::ModelConfig& cfg) {
  const std::size_t ts = cfg.tile_size;
  const std::array<std::size_t, 4> ranks = {
      std::max<std::size_t>(1, ts / 16), std::max<std::size_t>(2, ts / 8),
      std::max<std::size_t>(4, ts / 4), std::max<std::size_t>(8, ts / 2)};
  return perfmodel::KernelModel::calibrate(ts, ranks, 7, cfg.rounding);
}

void run_trace(const Options& opt, const Spec& spec, const core::ModelConfig& cfg,
               const core::GsxModel& model, std::span<const Location> locs,
               std::span<const double> z, const geostat::LoglikValue& v0,
               const core::EvalBreakdown& bd0, Result& res) {
  const std::vector<double> theta0(spec.theta0.begin(), spec.theta0.end());
  std::optional<perfmodel::KernelModel> perf;
  if (spec.variant == ComputeVariant::MPDenseTLR) {
    const Clock::time_point t = Clock::now();
    perf = calibrate(cfg);
    res.set("perfmodel.calibrate_s", seconds_since(t));
  }

  // theta0 first: its replay is compared with evaluate's l(theta0), and
  // its prepared matrix is factored once more on one worker.
  Replay r0;
  {
    SymTileMatrix a0 = replay_prepare(cfg, theta0, locs, perf ? &*perf : nullptr, r0);
    SymTileMatrix serial = a0;
    replay_factor(cfg, a0, z, r0);
    const Clock::time_point t = Clock::now();
    const cholesky::FactorReport rep = factorize(cfg, serial, 1);
    res.check(rep.info == 0);
    res.set("runtime.speedup_4w", seconds_since(t) / r0.factorize);
  }
  const double diff = rel_diff(r0.value.loglik, v0.loglik);
  res.set("replay.loglik_rel_diff", diff);
  res.check(r0.value.ok && diff <= 1e-8);

  // Layer and evaluate medians are both taken over the walk, as untraced.
  std::vector<Replay> reps;
  std::vector<double> evals;
  ThetaWalk walk(spec, opt.seed);
  const std::size_t min_steps = opt.smoke ? 2 : 3;
  const Clock::time_point t_start = Clock::now();
  while (evals.size() < min_steps || seconds_since(t_start) < opt.seconds) {
    const std::vector<double> theta = walk.next();
    Clock::time_point t = Clock::now();
    const geostat::LoglikValue v = model.evaluate(theta, locs, z);
    evals.push_back(seconds_since(t));
    res.check(v.ok);
    Replay r;
    SymTileMatrix a = replay_prepare(cfg, theta, locs, perf ? &*perf : nullptr, r);
    replay_factor(cfg, a, z, r);
    res.check(r.value.ok);
    reps.push_back(r);
  }

  const auto med = [&reps](auto field) {
    std::vector<double> v;
    for (const Replay& r : reps) v.push_back(field(r));
    return median(v);
  };
  const double assemble = med([](const Replay& r) { return r.assemble; });
  const double compress = med([](const Replay& r) { return r.compress; });
  const double tune = med([](const Replay& r) { return r.tune; });
  const double revert = med([](const Replay& r) { return r.revert; });
  const double policy = med([](const Replay& r) { return r.policy; });
  const double fact = med([](const Replay& r) { return r.factorize; });
  const double solve = med([](const Replay& r) { return r.solve; });
  const double loglik_s = median(evals);
  const double n = static_cast<double>(spec.n);
  res.set("geostat.assemble_s", assemble);
  res.set("geostat.assemble_melem_per_s",
          static_cast<double>(r0.elements) / assemble / 1e6);
  res.set("cholesky.policy_s", policy);
  res.set("cholesky.fp64_tiles", static_cast<double>(r0.pstats.fp64_tiles));
  res.set("cholesky.fp32_tiles", static_cast<double>(r0.pstats.fp32_tiles));
  res.set("cholesky.fp16_tiles", static_cast<double>(r0.pstats.fp16_tiles));
  res.set("cholesky.bf16_tiles", static_cast<double>(r0.pstats.bf16_tiles));
  res.set("cholesky.footprint_mb",
          static_cast<double>(bd0.footprint_bytes) / (1024.0 * 1024.0));
  res.set("cholesky.factorize_s", fact);
  res.set("cholesky.factorize_gflops", n * n * n / 3.0 / fact / 1e9);
  res.set("cholesky.loglik_solve_s", solve);
  res.set("runtime.tasks", static_cast<double>(r0.graph.num_tasks));
  res.set("runtime.critical_path_tasks", static_cast<double>(r0.graph.critical_path_tasks));
  res.set("runtime.parallel_eff",
          med([](const Replay& r) { return r.graph.parallel_efficiency(kWorkers); }));
  res.set("runtime.idle_s", med([](const Replay& r) {
            return r.graph.makespan_seconds * static_cast<double>(kWorkers) -
                   r.graph.total_task_seconds;
          }));
  if (spec.variant == ComputeVariant::MPDenseTLR) {
    const double attempted = static_cast<double>(r0.cstats.lr_tiles + r0.cstats.reverted_tiles);
    res.set("tlr.compress_s", compress);
    res.set("tlr.compressed_tiles", attempted);
    res.set("tlr.lr_tiles_kept", static_cast<double>(r0.kept));
    res.set("tlr.kept_frac", static_cast<double>(r0.kept) / attempted);
    res.set("tlr.avg_rank", r0.avg_rank);
    res.set("tlr.max_rank", static_cast<double>(r0.max_rank));
    res.set("tlr.revert_s", revert);
    res.set("perfmodel.tune_s", tune);
    res.set("perfmodel.band", static_cast<double>(r0.band));
  }
  if (opt.workload == "loglik-fine") {
    std::vector<double> rates;
    for (int i = 0; i < 5; ++i)
      rates.push_back(empty_dag_tasks_per_s(spec.n / spec.tile, cfg.sched));
    res.set("runtime.empty_tasks_per_s", median(rates));
  }
  res.set("la.dgemm_gflops", dgemm_gflops(spec.tile, opt.seed));
  res.set("replay.loglik_s", loglik_s);
  res.set("unattributed_s",
          loglik_s - (assemble + compress + tune + revert + policy + fact + solve));
  std::printf("  replayed %zu theta points; evaluate median %.4f s, assemble %.4f s, "
              "compress %.4f s, factorize %.4f s\n",
              reps.size(), loglik_s, assemble, compress, fact);
}

}  // namespace

double dgemm_gflops(std::size_t ts, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix<double> a(ts, ts), b(ts, ts), c(ts, ts);
  for (std::size_t i = 0; i < ts * ts; ++i) {
    a.data()[i] = rng.normal();
    b.data()[i] = rng.normal();
  }
  std::vector<double> rates;
  for (int batch = 0; batch < 5; ++batch) {
    std::size_t reps = 0;
    const Clock::time_point t = Clock::now();
    do {
      la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.cview(), b.cview(), 1.0,
                       c.view());
      ++reps;
    } while (seconds_since(t) < 0.05);
    rates.push_back(2.0 * std::pow(static_cast<double>(ts), 3) * static_cast<double>(reps) /
                    seconds_since(t) / 1e9);
  }
  return median(rates);
}

Result run_loglik(const Options& opt) {
  const Spec spec = spec_for(opt);
  const core::ModelConfig cfg = config_for(spec);
  const std::vector<double> theta0(spec.theta0.begin(), spec.theta0.end());
  Result res;
  res.n = spec.n;

  // Inputs (never timed): Morton-ordered jittered grid and one GRF draw.
  // The draw uses theta0's variance and range with nu = 0.5, whose closed
  // form keeps the single-threaded synthesis cheap at n = 4096.
  Rng rng(opt.seed);
  std::vector<Location> locs = geostat::perturbed_grid_locations(spec.n, rng);
  geostat::sort_morton(locs);
  const std::vector<double> z = geostat::simulate_grf(
      *geostat::make_kernel("matern", std::vector<double>{theta0[0], theta0[1], 0.5}), locs,
      rng);

  // Set-up: model construction plus the cold first evaluate (which pays the
  // perf-model calibration on loglik-tlr), several times for a median.
  const std::size_t setups = opt.trace || opt.smoke ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<core::GsxModel> model;
  core::EvalBreakdown bd0;
  geostat::LoglikValue v0;
  for (std::size_t i = 0; i < setups; ++i) {
    model.reset();
    const Clock::time_point t = Clock::now();
    model = std::make_unique<core::GsxModel>(geostat::make_kernel("matern", theta0), cfg);
    v0 = model->evaluate(theta0, locs, z, &bd0);
    setup_s.push_back(seconds_since(t));
    res.check(v0.ok);
  }

  if (opt.trace) {
    run_trace(opt, spec, cfg, *model, locs, z, v0, bd0, res);
    return res;
  }

  ThetaWalk walk(spec, opt.seed);
  std::vector<double> eval_s;
  std::vector<double> theta_last = theta0;
  geostat::LoglikValue v_last = v0;
  const std::size_t min_evals = opt.smoke ? 2 : 3;
  const Clock::time_point t_start = Clock::now();
  while (eval_s.size() < min_evals || seconds_since(t_start) < opt.seconds) {
    theta_last = walk.next();
    const Clock::time_point t = Clock::now();
    v_last = model->evaluate(theta_last, locs, z);
    eval_s.push_back(seconds_since(t));
    res.check(v_last.ok);
  }

  // Untimed: both references at once, they are single-threaded.
  std::future<double> diff0 = std::async(std::launch::async, [&] {
    return dense_rel_diff(theta0, locs, z, v0);
  });
  const double diff_last = dense_rel_diff(theta_last, locs, z, v_last);
  const double diff_first = diff0.get();
  std::printf("  l(theta) vs dense_loglik: rel %.2e at theta0, %.2e at the last step\n",
              diff_first, diff_last);
  res.check(diff_first <= 1e-6);
  res.check(diff_last <= 1e-6);

  res.set("setup_s", median(setup_s));
  res.set("op_median_s", median(eval_s));
  std::printf("  %zu evaluations, median %.4f s (q1 %.4f, q3 %.4f); setup median %.3f s "
              "over %zu\n",
              eval_s.size(), median(eval_s), quantile(eval_s, 0.25), quantile(eval_s, 0.75),
              median(setup_s), setup_s.size());
  return res;
}

}  // namespace gsx::e2e
