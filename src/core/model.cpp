#include "core/model.hpp"

#include <array>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "cholesky/health_audit.hpp"
#include "geostat/assemble.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace gsx::core {

using geostat::Location;
using tile::SymTileMatrix;

namespace {

/// Fig. 8 / Fig. 9 inputs: precision mix of the decision-annotated matrix
/// and the ranks of its low-rank tiles.
void profile_tiles(const SymTileMatrix& a) {
  if (!obs::enabled()) return;
  obs::TileMix mix;
  std::vector<std::size_t> ranks;
  for (std::size_t j = 0; j < a.nt(); ++j) {
    for (std::size_t i = j; i < a.nt(); ++i) {
      const tile::Tile& t = a.at(i, j);
      if (t.format() == tile::TileFormat::LowRank) {
        (t.precision() == Precision::FP32 ? mix.lr32 : mix.lr64) += 1;
        ranks.push_back(t.rank());
      } else {
        mix.dense[static_cast<std::size_t>(t.precision())] += 1;
      }
    }
  }
  obs::record_iteration_tiles(mix, ranks);
}

/// Algorithm 2 from the outside in: compress sub-diagonal d = nt-1, nt-2,
/// ... until dense execution wins on one (perfmodel::dense_wins). That
/// sub-diagonal gets its assembled tiles back and nothing nearer the
/// diagonal is compressed. Returns band_size_dense (diagonal included; 1
/// when low rank wins everywhere). Low-rank tiles match compress_offband's
/// bit for bit: both take ||A||_F from the assembled matrix.
std::size_t compress_outside_in(SymTileMatrix& a, const cholesky::TlrCompressOptions& copt,
                                const perfmodel::KernelModel& model, double fluctuation,
                                std::size_t workers) {
  const obs::ScopedPhase phase(obs::Phase::Compress);
  const double global_norm = copt.lr_fp32 ? a.frobenius_norm(workers) : 0.0;
  const std::size_t nt = a.nt();
  std::vector<tile::Tile> assembled(nt);
  for (std::size_t d = nt; d-- > 1;) {
    // Sub-diagonal d holds tiles (j + d, j), j < nt - d.
    rt::parallel_for(0, nt - d, workers, [&](std::size_t j) {
      assembled[j] = a.at(j + d, j);
      cholesky::compress_tile(a, j + d, j, global_norm, copt);
    });
    if (perfmodel::dense_wins(a, model, d, fluctuation)) {
      for (std::size_t j = 0; j + d < nt; ++j) a.at(j + d, j) = std::move(assembled[j]);
      return d + 1;
    }
  }
  return 1;
}

}  // namespace

GsxModel::GsxModel(std::unique_ptr<geostat::CovarianceModel> prototype, ModelConfig config)
    : prototype_(std::move(prototype)), config_(config) {
  GSX_REQUIRE(prototype_ != nullptr, "GsxModel: covariance prototype required");
  GSX_REQUIRE(config_.tile_size >= 8, "GsxModel: tile size too small");
  GSX_REQUIRE(config_.workers >= 1, "GsxModel: need at least one worker");
  // Checked here rather than mid-evaluation, where fit() would turn the
  // error into an infeasible point.
  GSX_REQUIRE(config_.tlr_tol > 0, "GsxModel: TLR tolerance must be positive");
  GSX_REQUIRE(config_.fluctuation > 0, "GsxModel: band fluctuation must be positive");
}

const perfmodel::KernelModel& GsxModel::perf_model(std::size_t ts) const {
  std::lock_guard lk(perf_mutex_);
  if (!perf_model_ || perf_model_->tile_size() != ts) {
    if (config_.calibrate_perf_model) {
      const std::array<std::size_t, 4> ranks = {std::max<std::size_t>(1, ts / 16),
                                                std::max<std::size_t>(2, ts / 8),
                                                std::max<std::size_t>(4, ts / 4),
                                                std::max<std::size_t>(8, ts / 2)};
      perf_model_ = perfmodel::KernelModel::calibrate(ts, ranks, 7, config_.rounding);
    } else {
      perf_model_ = perfmodel::KernelModel::theoretical(ts);
    }
  }
  return *perf_model_;
}

void GsxModel::prepare(std::span<const double> theta, std::span<const Location> locs,
                       SymTileMatrix& out, EvalBreakdown* breakdown) const {
  const std::unique_ptr<geostat::CovarianceModel> model = prototype_->clone();
  model->set_params(theta);

  geostat::fill_covariance_tiles(out, *model, locs, config_.workers);
  if (breakdown) breakdown->dense_fp64_bytes = out.dense_fp64_bytes();

  // Structure-aware decision first (Algorithm 2, on full-precision data):
  // compress off-band tiles. With auto-tuning the band is decided from the
  // outside in, one sub-diagonal at a time, so in-band tiles are never
  // compressed.
  if (config_.variant == ComputeVariant::MPDenseTLR) {
    cholesky::TlrCompressOptions copt;
    copt.tol = config_.tlr_tol;
    copt.method = config_.compression;
    copt.lr_fp32 = config_.lr_fp32;
    copt.eps_target = config_.eps_target;
    std::size_t band = std::max<std::size_t>(1, config_.band_size);
    if (config_.auto_band) {
      band = compress_outside_in(out, copt, perf_model(out.tile_size()), config_.fluctuation,
                                 config_.workers);
    } else {
      copt.band_size = band;
      cholesky::compress_offband(out, copt, config_.workers);
    }
    if (breakdown) breakdown->band_size_dense = band;
  }

  // Precision-aware decision (Fig. 2) on the tiles that remained dense.
  cholesky::PrecisionPolicy policy;
  policy.band = config_.band;
  policy.eps_target = config_.eps_target;
  policy.allow_fp16 = config_.allow_fp16;
  policy.allow_bf16 = config_.allow_bf16;
  switch (config_.variant) {
    case ComputeVariant::DenseFP64:
      policy.rule = cholesky::PrecisionRule::AllFP64;
      break;
    case ComputeVariant::MPDense:
    case ComputeVariant::MPDenseTLR:
      policy.rule = config_.mp_rule;
      break;
  }
  {
    const obs::ScopedPhase phase(obs::Phase::PrecisionPolicy);
    cholesky::apply_precision_policy(out, policy, config_.workers);
  }
  if (breakdown) breakdown->footprint_bytes = out.footprint_bytes();
}

bool GsxModel::prepare_and_factor(std::span<const double> theta,
                                  std::span<const Location> locs, SymTileMatrix& out,
                                  EvalBreakdown* breakdown) const {
  Timer total;
  prepare(theta, locs, out, breakdown);
  // Capture the decision mix before the factorization overwrites the tiles.
  profile_tiles(out);

  cholesky::FactorOptions fopt;
  fopt.workers = config_.workers;
  fopt.rounding = config_.rounding;
  fopt.rule = (config_.variant == ComputeVariant::DenseFP64)
                  ? cholesky::PrecisionRule::AllFP64
                  : config_.mp_rule;
  // Health audit: lambda_max must be sampled before the factorization
  // overwrites the tiles; lambda_min comes from the factor afterwards.
  const bool audit = obs::health_enabled();
  const double lambda_max = audit ? cholesky::estimate_lambda_max(out) : 0.0;
  const cholesky::FactorReport report =
      (config_.variant == ComputeVariant::MPDenseTLR)
          ? cholesky::tile_cholesky_tlr(out, config_.tlr_tol, fopt)
          : cholesky::tile_cholesky_dense(out, fopt);
  if (audit && report.info == 0) cholesky::audit_condition(lambda_max, out);
  if (breakdown) {
    breakdown->factor = report;
    breakdown->total_seconds = total.seconds();
  }
  return report.info == 0;
}

geostat::LoglikValue GsxModel::evaluate(std::span<const double> theta,
                                        std::span<const Location> locs,
                                        std::span<const double> z,
                                        EvalBreakdown* breakdown) const {
  GSX_REQUIRE(locs.size() == z.size(), "GsxModel::evaluate: data size mismatch");
  SymTileMatrix a(locs.size(), config_.tile_size);
  obs::begin_iteration("evaluate");
  if (!prepare_and_factor(theta, locs, a, breakdown)) {
    obs::end_iteration();
    return geostat::LoglikValue{};
  }
  const geostat::LoglikValue v = cholesky::tile_loglik(a, z);
  obs::end_iteration();
  return v;
}

FitResult GsxModel::fit(std::span<const Location> locs, std::span<const double> z,
                        const FitCallback& on_improve) const {
  const std::vector<double> lo = prototype_->lower_bounds();
  const std::vector<double> hi = prototype_->upper_bounds();
  const std::vector<double> start = prototype_->params();

  // Incumbent-best tracking for the checkpoint hook. PSO evaluates the
  // objective concurrently, so the update is mutex-guarded.
  std::mutex best_mutex;
  double best_fval = std::numeric_limits<double>::infinity();
  std::size_t evals_seen = 0;

  const optim::Objective objective = [&](std::span<const double> theta) {
    // A kernel's set_params may reject a box-feasible point
    // (InvalidArgument); treat it as infeasible.
    double fval = std::numeric_limits<double>::infinity();
    try {
      const geostat::LoglikValue v = evaluate(theta, locs, z);
      fval = v.ok ? -v.loglik : std::numeric_limits<double>::infinity();
    } catch (const InvalidArgument&) {
      fval = std::numeric_limits<double>::infinity();
    }
    if (on_improve) {
      std::lock_guard lk(best_mutex);
      ++evals_seen;
      if (fval < best_fval) {
        best_fval = fval;
        on_improve(FitProgress{theta, -fval, evals_seen});
      }
    }
    return fval;
  };

  Timer t;
  obs::log_info("model", "fit starting",
                {obs::lf("optimizer", config_.optimizer == OptimizerKind::NelderMead
                                          ? "nelder-mead"
                                          : "pso"),
                 obs::lf("n", static_cast<std::uint64_t>(locs.size())),
                 obs::lf("variant", variant_name(config_.variant))});
  optim::OptimResult r;
  if (config_.optimizer == OptimizerKind::NelderMead) {
    r = optim::nelder_mead(objective, start, lo, hi, config_.nm);
  } else {
    r = optim::particle_swarm(objective, lo, hi, config_.pso);
  }
  obs::log_info("model", "fit complete",
                {obs::lf("loglik", -r.fval),
                 obs::lf("evaluations", static_cast<std::uint64_t>(r.evals)),
                 obs::lf("converged", r.converged),
                 obs::lf("seconds", t.seconds())});
  FitResult out;
  out.theta = r.x;
  out.loglik = -r.fval;
  out.evaluations = r.evals;
  out.converged = r.converged;
  out.seconds = t.seconds();
  return out;
}

tile::SymTileMatrix GsxModel::factor_at(std::span<const double> theta,
                                        std::span<const Location> locs,
                                        EvalBreakdown* breakdown) const {
  SymTileMatrix a(locs.size(), config_.tile_size);
  EvalBreakdown local;
  EvalBreakdown* bd = breakdown != nullptr ? breakdown : &local;
  if (!prepare_and_factor(theta, locs, a, bd)) {
    NumericalContext ctx;
    ctx.tile_i = ctx.tile_j = bd->factor.failed_tile;
    ctx.pivot = bd->factor.info;
    ctx.rule = cholesky::precision_rule_name(
        (config_.variant == ComputeVariant::DenseFP64) ? cholesky::PrecisionRule::AllFP64
                                                       : config_.mp_rule);
    throw NumericalError("GsxModel::factor_at: covariance not SPD at theta",
                         std::move(ctx));
  }
  return a;
}

geostat::KrigingResult GsxModel::predict(std::span<const double> theta,
                                         std::span<const Location> train_locs,
                                         std::span<const double> z_train,
                                         std::span<const Location> test_locs,
                                         bool with_variance) const {
  obs::begin_iteration("predict");
  SymTileMatrix a = [&] {
    try {
      return factor_at(theta, train_locs);
    } catch (...) {
      obs::end_iteration();
      throw;
    }
  }();

  // Predict through the tile factor itself: the TLR variant never
  // materializes a dense L, preserving its memory-footprint advantage in
  // the prediction phase too.
  const std::unique_ptr<geostat::CovarianceModel> model = prototype_->clone();
  model->set_params(theta);
  geostat::KrigingResult out = cholesky::tile_krige(*model, a, train_locs, z_train,
                                                    test_locs, with_variance,
                                                    config_.workers);
  obs::end_iteration();
  return out;
}

tile::SymTileMatrix GsxModel::build_decision_matrix(std::span<const double> theta,
                                                    std::span<const Location> locs,
                                                    EvalBreakdown* breakdown) const {
  SymTileMatrix a(locs.size(), config_.tile_size);
  prepare(theta, locs, a, breakdown);
  return a;
}

}  // namespace gsx::core
