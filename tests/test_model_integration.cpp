// End-to-end GsxModel: evaluate / fit / predict across all three compute
// variants, on space and space-time data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>

#include "core/model.hpp"
#include "data/synthetic.hpp"
#include "geostat/assemble.hpp"
#include "geostat/field.hpp"
#include "mathx/stats.hpp"
#include "obs/health.hpp"
#include "tile/tile_codec.hpp"

namespace gsx::core {
namespace {

using geostat::Location;

struct SpaceData {
  std::vector<Location> locs;
  std::vector<double> z;
};

SpaceData make_space_data(std::size_t n, double range, std::uint64_t seed = 11) {
  Rng rng(seed);
  SpaceData d;
  d.locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(d.locs);
  const geostat::MaternCovariance model(1.0, range, 0.5, 1e-6);
  d.z = geostat::simulate_grf(model, d.locs, rng);
  return d;
}

ModelConfig base_config(ComputeVariant v) {
  ModelConfig cfg;
  cfg.variant = v;
  cfg.tile_size = 32;
  cfg.workers = 2;
  cfg.eps_target = 1e-8;
  cfg.tlr_tol = 1e-8;
  cfg.auto_band = false;
  cfg.band_size = 2;
  return cfg;
}

class AllVariants : public ::testing::TestWithParam<ComputeVariant> {};

TEST_P(AllVariants, EvaluateAgreesWithDenseReference) {
  const SpaceData d = make_space_data(160, 0.1);
  const geostat::MaternCovariance proto(1.0, 0.1, 0.5, 1e-6);
  const std::vector<double> theta = {1.0, 0.1, 0.5};

  const geostat::LoglikValue ref = geostat::dense_loglik(proto, d.locs, d.z);
  ASSERT_TRUE(ref.ok);

  GsxModel model(proto.clone(), base_config(GetParam()));
  EvalBreakdown bd;
  const geostat::LoglikValue got = model.evaluate(theta, d.locs, d.z, &bd);
  ASSERT_TRUE(got.ok) << variant_name(GetParam());
  // The paper's Tables I/II: variants agree on llh to ~4-5 significant digits.
  EXPECT_NEAR(got.loglik, ref.loglik, 1e-3 * std::fabs(ref.loglik))
      << variant_name(GetParam());
  EXPECT_GT(bd.factor.graph.num_tasks, 0u);
  EXPECT_GT(bd.total_seconds, 0.0);
}

TEST_P(AllVariants, PredictBeatsZeroPredictor) {
  const SpaceData d = make_space_data(220, 0.12);
  const geostat::MaternCovariance proto(1.0, 0.12, 0.5, 1e-6);
  const std::vector<double> theta = {1.0, 0.12, 0.5};

  const std::size_t ntrain = 180;
  GsxModel model(proto.clone(), base_config(GetParam()));
  const std::span<const Location> train(d.locs.data(), ntrain);
  const std::span<const Location> test(d.locs.data() + ntrain, d.locs.size() - ntrain);
  const std::span<const double> ztrain(d.z.data(), ntrain);
  const std::vector<double> ztest(d.z.begin() + ntrain, d.z.end());

  const geostat::KrigingResult r = model.predict(theta, train, ztrain, test);
  const double err = mathx::mspe(r.mean, ztest);
  double zero = 0.0;
  for (double v : ztest) zero += v * v;
  zero /= static_cast<double>(ztest.size());
  // nu = 0.5 (rough field): kriging gains are modest but must be real.
  EXPECT_LT(err, 0.85 * zero) << variant_name(GetParam());
  ASSERT_EQ(r.variance.size(), ztest.size());
  for (double v : r.variance) EXPECT_GE(v, -1e-6);
}

INSTANTIATE_TEST_SUITE_P(Variants, AllVariants,
                         ::testing::Values(ComputeVariant::DenseFP64,
                                           ComputeVariant::MPDense,
                                           ComputeVariant::MPDenseTLR),
                         [](const auto& info) {
                           switch (info.param) {
                             case ComputeVariant::DenseFP64: return "DenseFP64";
                             case ComputeVariant::MPDense: return "MPDense";
                             default: return "MPDenseTLR";
                           }
                         });

TEST(GsxModel, VariantsAgreePairwiseOnLoglik) {
  const SpaceData d = make_space_data(192, 0.08);
  const geostat::MaternCovariance proto(1.0, 0.08, 0.5, 1e-6);
  const std::vector<double> theta = {0.9, 0.09, 0.6};
  double vals[3];
  int i = 0;
  for (ComputeVariant v : {ComputeVariant::DenseFP64, ComputeVariant::MPDense,
                           ComputeVariant::MPDenseTLR}) {
    GsxModel m(proto.clone(), base_config(v));
    const auto r = m.evaluate(theta, d.locs, d.z);
    ASSERT_TRUE(r.ok);
    vals[i++] = r.loglik;
  }
  EXPECT_NEAR(vals[1], vals[0], 1e-3 * std::fabs(vals[0]));
  EXPECT_NEAR(vals[2], vals[0], 1e-3 * std::fabs(vals[0]));
}

TEST(GsxModel, FitRecoversParametersSmallProblem) {
  // Parameter recovery on a modest problem: estimates should land near the
  // truth (cf. Fig. 6 boxplots; a single replicate has sampling noise).
  const SpaceData d = make_space_data(256, 0.1, 21);
  geostat::MaternCovariance proto(0.5, 0.05, 1.0, 1e-6);  // start away from truth

  ModelConfig cfg = base_config(ComputeVariant::DenseFP64);
  cfg.nm.max_evals = 250;
  GsxModel model(proto.clone(), cfg);
  const FitResult fit = model.fit(d.locs, d.z);
  ASSERT_EQ(fit.theta.size(), 3u);
  EXPECT_GT(fit.evaluations, 10u);
  // Loose recovery bounds: one replicate of n=256.
  EXPECT_GT(fit.theta[0], 0.3);
  EXPECT_LT(fit.theta[0], 3.0);
  EXPECT_GT(fit.theta[1], 0.02);
  EXPECT_LT(fit.theta[1], 0.5);
  // The fit's loglik must beat the starting point's.
  const auto start = model.evaluate(proto.params(), d.locs, d.z);
  EXPECT_GE(fit.loglik, start.loglik);
}

TEST(GsxModel, MpDenseReducesFootprint) {
  const SpaceData d = make_space_data(256, 0.03);
  const geostat::MaternCovariance proto(1.0, 0.03, 0.5, 1e-6);
  const std::vector<double> theta = {1.0, 0.03, 0.5};

  EvalBreakdown dense_bd, mp_bd, tlr_bd;
  GsxModel dense(proto.clone(), base_config(ComputeVariant::DenseFP64));
  GsxModel mp(proto.clone(), base_config(ComputeVariant::MPDense));
  GsxModel tlr(proto.clone(), base_config(ComputeVariant::MPDenseTLR));
  ASSERT_TRUE(dense.evaluate(theta, d.locs, d.z, &dense_bd).ok);
  ASSERT_TRUE(mp.evaluate(theta, d.locs, d.z, &mp_bd).ok);
  ASSERT_TRUE(tlr.evaluate(theta, d.locs, d.z, &tlr_bd).ok);

  EXPECT_LT(mp_bd.footprint_bytes, dense_bd.footprint_bytes)
      << "MP must reduce the memory footprint";
  EXPECT_LT(tlr_bd.footprint_bytes, mp_bd.footprint_bytes)
      << "MP+TLR must reduce it further (paper Fig. 9)";
  EXPECT_EQ(dense_bd.footprint_bytes, dense_bd.dense_fp64_bytes);
}

/// A tile's bytes as its checkpoint record (format, precision, shape, rank,
/// storage verbatim), for bit-identity checks.
std::vector<std::uint8_t> tile_bits(const tile::Tile& t) {
  std::vector<std::uint8_t> out;
  tile::encode_tile(t, out);
  return out;
}

TEST(GsxModel, AutoBandTuningRuns) {
  // Under the flop model this matrix's winners along sub-diagonals 1..7 read
  // dense x5, low rank x2, so the walk restores one compressed sub-diagonal.
  const SpaceData d = make_space_data(256, 0.03);
  const geostat::MaternCovariance proto(1.0, 0.03, 0.5, 1e-6);
  ModelConfig cfg = base_config(ComputeVariant::MPDenseTLR);
  cfg.auto_band = true;
  cfg.calibrate_perf_model = false;
  GsxModel model(proto.clone(), cfg);
  EvalBreakdown bd;
  const std::vector<double> theta = {1.0, 0.03, 0.5};
  obs::reset_health();
  obs::set_health_enabled(true);
  const bool ok = model.evaluate(theta, d.locs, d.z, &bd).ok;
  const obs::HealthSnapshot health = obs::health_snapshot();
  obs::set_health_enabled(false);
  obs::reset_health();
  ASSERT_TRUE(ok);
  const std::size_t nt = 8;  // n=256, ts=32
  const std::size_t band = bd.band_size_dense;
  ASSERT_GE(band, 1u);
  ASSERT_LE(band, nt);

  // The walk compresses sub-diagonals nt-1 down to band-1 (down to 1 when
  // low rank wins everywhere) and nothing nearer the diagonal.
  const std::size_t innermost = std::max<std::size_t>(1, band - 1);
  std::size_t walked_tiles = 0;
  for (std::size_t s = innermost; s < nt; ++s) walked_tiles += nt - s;
  EXPECT_EQ(health.tlr.size(), walked_tiles);
  std::set<std::size_t> walked;
  for (const obs::TlrRecord& r : health.tlr) walked.insert(r.i - r.j);
  ASSERT_FALSE(walked.empty());
  EXPECT_EQ(*walked.begin(), innermost);
  EXPECT_EQ(walked.size(), nt - innermost);

  // Reference: compress every off-diagonal tile, then tune eagerly under the
  // same (flop) model.
  const auto kernel = proto.clone();
  kernel->set_params(theta);
  tile::SymTileMatrix assembled(d.locs.size(), cfg.tile_size);
  geostat::fill_covariance_tiles(assembled, *kernel, d.locs, 1);
  tile::SymTileMatrix eager = assembled;
  cholesky::TlrCompressOptions copt;
  copt.tol = cfg.tlr_tol;
  copt.method = cfg.compression;
  copt.lr_fp32 = cfg.lr_fp32;
  copt.eps_target = cfg.eps_target;
  copt.band_size = 1;
  cholesky::compress_offband(eager, copt, 1);
  EXPECT_EQ(band, perfmodel::tune_band_size(
                      eager, perfmodel::KernelModel::theoretical(cfg.tile_size),
                      cfg.fluctuation)
                      .band_size_dense);

  // Low-rank tiles are bit-identical to the eager copy's; dense FP64 tiles
  // (the whole band unless the precision policy demoted them) hold the
  // assembled values, not a U V^T reconstruction.
  const tile::SymTileMatrix got = model.build_decision_matrix(theta, d.locs);
  std::size_t lowrank = 0, in_band_fp64 = 0;
  for (std::size_t j = 0; j < nt; ++j) {
    for (std::size_t i = j; i < nt; ++i) {
      const tile::Tile& t = got.at(i, j);
      if (t.format() == tile::TileFormat::LowRank) {
        ++lowrank;
        EXPECT_GE(i - j, band) << i << "," << j;
        EXPECT_EQ(tile_bits(t), tile_bits(eager.at(i, j))) << i << "," << j;
      } else if (t.precision() == Precision::FP64) {
        if (i - j >= 1 && i - j < band) ++in_band_fp64;
        EXPECT_EQ(tile_bits(t), tile_bits(assembled.at(i, j))) << i << "," << j;
      }
    }
  }
  EXPECT_GT(lowrank, 0u);
  EXPECT_GT(in_band_fp64, 0u);
}

/// FNV-1a (64-bit) over encode_tile of every tile of a factor.
std::uint64_t factor_fnv(const tile::SymTileMatrix& f) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t j = 0; j < f.nt(); ++j)
    for (std::size_t i = j; i < f.nt(); ++i)
      for (const std::uint8_t b : tile_bits(f.at(i, j))) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

/// Counts of a factor's off-diagonal tiles by storage.
struct TileMix {
  std::size_t fp32 = 0, fp16 = 0, lowrank_fp32 = 0, lowrank_fp64 = 0;
};
TileMix tile_mix(const tile::SymTileMatrix& f) {
  TileMix mix;
  for (std::size_t j = 0; j < f.nt(); ++j)
    for (std::size_t i = j + 1; i < f.nt(); ++i) {
      const tile::Tile& t = f.at(i, j);
      const bool fp32 = t.precision() == Precision::FP32;
      if (t.format() == tile::TileFormat::LowRank)
        ++(fp32 ? mix.lowrank_fp32 : mix.lowrank_fp64);
      else
        (fp32 ? mix.fp32 : mix.fp16) += fp32 || t.precision() == Precision::FP16;
    }
  return mix;
}

/// The factor's tiles and the bits of l(theta) agree between 1 and 4
/// workers, on n = 700 at tile 128 (a 60-row ragged last tile).
TileMix expect_factor_and_loglik_worker_independent(ModelConfig cfg, double range) {
  const SpaceData d = make_space_data(700, range);
  const geostat::MaternCovariance proto(1.0, range, 0.5, 1e-6);
  const std::vector<double> theta = {1.0, range, 0.5};
  cfg.tile_size = 128;
  cfg.calibrate_perf_model = false;
  cfg.workers = 1;
  const GsxModel seq(proto.clone(), cfg);
  cfg.workers = 4;
  const GsxModel par(proto.clone(), cfg);

  const tile::SymTileMatrix f1 = seq.factor_at(theta, d.locs);
  EXPECT_EQ(factor_fnv(f1), factor_fnv(par.factor_at(theta, d.locs)));
  const geostat::LoglikValue l1 = seq.evaluate(theta, d.locs, d.z);
  const geostat::LoglikValue l4 = par.evaluate(theta, d.locs, d.z);
  EXPECT_TRUE(l1.ok && l4.ok);
  EXPECT_EQ(std::memcmp(&l1.loglik, &l4.loglik, sizeof(double)), 0)
      << l1.loglik << " vs " << l4.loglik;
  return tile_mix(f1);
}

TEST(GsxModel, MixedPrecisionFactorAndLoglikDoNotDependOnWorkers) {
  ModelConfig cfg;
  cfg.variant = ComputeVariant::MPDense;
  cfg.mp_rule = cholesky::PrecisionRule::AdaptiveFrobenius;
  cfg.eps_target = 1e-5;  // leaves 10 FP32 and 5 FP16 off-diagonal tiles
  const TileMix mix = expect_factor_and_loglik_worker_independent(cfg, 0.03);
  EXPECT_GT(mix.fp32, 0u);
  EXPECT_GT(mix.fp16, 0u);
}

TEST(GsxModel, TlrFactorAndLoglikDoNotDependOnWorkers) {
  ModelConfig cfg;
  cfg.variant = ComputeVariant::MPDenseTLR;
  cfg.lr_fp32 = true;
  cfg.auto_band = false;
  cfg.band_size = 2;
  const TileMix mix = expect_factor_and_loglik_worker_independent(cfg, 0.03);
  EXPECT_GT(mix.lowrank_fp32, 0u);
}

TEST(GsxModel, Fp64TlrFactorAndLoglikDoNotDependOnWorkers) {
  ModelConfig cfg;
  cfg.variant = ComputeVariant::MPDenseTLR;
  cfg.lr_fp32 = false;
  cfg.auto_band = false;
  cfg.band_size = 2;
  const TileMix mix = expect_factor_and_loglik_worker_independent(cfg, 0.03);
  EXPECT_GT(mix.lowrank_fp64, 0u);
  EXPECT_EQ(mix.lowrank_fp32, 0u);
}

TEST(GsxModel, RejectsBadTlrSettingsAtConstruction) {
  // fit() turns an InvalidArgument from evaluate into an infeasible point,
  // so these must fail here rather than mid-evaluation.
  const geostat::MaternCovariance proto(1.0, 0.1, 0.5, 1e-6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double f : {0.0, -1.0, nan}) {
    ModelConfig cfg = base_config(ComputeVariant::MPDenseTLR);
    cfg.fluctuation = f;
    EXPECT_THROW(GsxModel(proto.clone(), cfg), InvalidArgument) << "fluctuation " << f;
  }
  for (const double tol : {0.0, nan}) {
    ModelConfig cfg = base_config(ComputeVariant::MPDenseTLR);
    cfg.tlr_tol = tol;
    EXPECT_THROW(GsxModel(proto.clone(), cfg), InvalidArgument) << "tlr_tol " << tol;
  }
}

TEST(GsxModel, DecisionMatrixMatchesVariantSemantics) {
  const SpaceData d = make_space_data(192, 0.05);
  const geostat::MaternCovariance proto(1.0, 0.05, 0.5, 1e-6);
  const std::vector<double> theta = {1.0, 0.05, 0.5};

  GsxModel tlr(proto.clone(), base_config(ComputeVariant::MPDenseTLR));
  const tile::SymTileMatrix a = tlr.build_decision_matrix(theta, d.locs);
  const auto counts = a.decision_counts();
  std::size_t lr = 0, dense = 0;
  for (const auto& [code, cnt] : counts) {
    if (code == 'L' || code == 'l') lr += cnt;
    else dense += cnt;
  }
  EXPECT_GT(lr, 0u) << "off-band tiles must be low-rank";
  EXPECT_GE(dense, a.nt()) << "diagonal (at least) stays dense";

  GsxModel d64(proto.clone(), base_config(ComputeVariant::DenseFP64));
  const tile::SymTileMatrix b = d64.build_decision_matrix(theta, d.locs);
  const auto bc = b.decision_counts();
  ASSERT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc.begin()->first, 'D');
}

TEST(GsxModel, NonSpdParameterPointReturnsNotOk) {
  // A zero-nugget model at duplicate locations cannot factor.
  std::vector<Location> locs = {{0.1, 0.1, 0}, {0.1, 0.1, 0}, {0.5, 0.5, 0},
                                {0.9, 0.2, 0}, {0.3, 0.7, 0}, {0.6, 0.6, 0},
                                {0.2, 0.4, 0}, {0.8, 0.8, 0}};
  std::vector<double> z(locs.size(), 1.0);
  const geostat::MaternCovariance proto(1.0, 0.1, 0.5, 0.0);
  ModelConfig cfg = base_config(ComputeVariant::DenseFP64);
  cfg.tile_size = 8;
  GsxModel model(proto.clone(), cfg);
  const std::vector<double> theta = {1.0, 0.1, 0.5};
  const auto r = model.evaluate(theta, locs, z);
  EXPECT_FALSE(r.ok);
}

TEST(GsxModel, SpaceTimeEndToEnd) {
  data::EtConfig cfg;
  cfg.spatial_n = 36;
  cfg.months = 5;
  cfg.history_years = 8;
  const data::SpaceTimeDataset ds = data::make_et_like(cfg);
  const std::vector<double> residual = data::detrend_et(ds);

  const geostat::GneitingCovariance proto(cfg.variance, cfg.range_s, cfg.smooth_s,
                                          cfg.range_t, cfg.smooth_t, cfg.beta, 1e-4);
  ModelConfig mc = base_config(ComputeVariant::MPDenseTLR);
  mc.tile_size = 36;
  GsxModel model(proto.clone(), mc);
  const auto r = model.evaluate(proto.params(), ds.locations, residual);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(std::isfinite(r.loglik));

  // The dense reference agrees.
  const auto ref = geostat::dense_loglik(proto, ds.locations, residual);
  ASSERT_TRUE(ref.ok);
  EXPECT_NEAR(r.loglik, ref.loglik, 1e-3 * std::fabs(ref.loglik));
}

TEST(GsxModel, PsoOptimizerPathWorks) {
  const SpaceData d = make_space_data(128, 0.1, 31);
  const geostat::MaternCovariance proto(1.0, 0.1, 0.5, 1e-6);
  ModelConfig cfg = base_config(ComputeVariant::DenseFP64);
  cfg.optimizer = OptimizerKind::ParticleSwarm;
  cfg.pso.swarm_size = 8;
  cfg.pso.max_iters = 6;
  cfg.pso.workers = 4;
  GsxModel model(proto.clone(), cfg);
  const FitResult fit = model.fit(d.locs, d.z);
  EXPECT_TRUE(fit.converged);
  EXPECT_GE(fit.evaluations, 8u);  // at least one swarm round
  EXPECT_TRUE(std::isfinite(fit.loglik));
}

}  // namespace
}  // namespace gsx::core
