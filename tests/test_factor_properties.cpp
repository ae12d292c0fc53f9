// Property-based sweeps across the factorization stack: for every variant,
// tile size, and correlation regime, the end-to-end invariants must hold.
#include <gtest/gtest.h>

#include <cmath>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_solve.hpp"
#include "core/model.hpp"
#include "geostat/assemble.hpp"
#include "geostat/field.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx {
namespace {

using gsx::test::rel_frobenius_diff;

struct Sweep {
  std::size_t n;
  std::size_t ts;
  double range;
  core::ComputeVariant variant;
};

std::string sweep_name(const ::testing::TestParamInfo<Sweep>& info) {
  const auto& s = info.param;
  std::string v = s.variant == core::ComputeVariant::DenseFP64   ? "dense"
                  : s.variant == core::ComputeVariant::MPDense   ? "mp"
                                                                 : "tlr";
  return "n" + std::to_string(s.n) + "_ts" + std::to_string(s.ts) + "_r" +
         std::to_string(static_cast<int>(s.range * 100)) + "_" + v;
}

// Names the test case; gtest's default print dumps bytes, padding included.
void PrintTo(const Sweep& s, std::ostream* os) { *os << sweep_name({s, 0}); }

class FactorSweep : public ::testing::TestWithParam<Sweep> {};

TEST_P(FactorSweep, LoglikConsistentWithDenseReference) {
  const Sweep s = GetParam();
  Rng rng(s.n * 31 + s.ts);
  auto locs = geostat::perturbed_grid_locations(s.n, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, s.range, 0.5, 1e-6);
  const auto z = geostat::simulate_grf(model, locs, rng);

  const geostat::LoglikValue ref = geostat::dense_loglik(model, locs, z);
  ASSERT_TRUE(ref.ok);

  core::ModelConfig cfg;
  cfg.variant = s.variant;
  cfg.tile_size = s.ts;
  cfg.workers = 2;
  cfg.auto_band = false;
  cfg.band_size = 2;
  core::GsxModel m(model.clone(), cfg);
  const auto got = m.evaluate(model.params(), locs, z);
  ASSERT_TRUE(got.ok) << sweep_name({GetParam(), 0});
  EXPECT_NEAR(got.loglik, ref.loglik, 2e-3 * std::fabs(ref.loglik));
}

std::vector<Sweep> make_sweeps() {
  std::vector<Sweep> out;
  for (std::size_t n : {96u, 160u}) {
    for (std::size_t ts : {24u, 48u}) {
      for (double r : {0.03, 0.3}) {
        for (core::ComputeVariant v :
             {core::ComputeVariant::DenseFP64, core::ComputeVariant::MPDense,
              core::ComputeVariant::MPDenseTLR}) {
          out.push_back({n, ts, r, v});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, FactorSweep, ::testing::ValuesIn(make_sweeps()),
                         sweep_name);

// --------------------------------------------------------------------

class BandWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BandWidthSweep, WiderBandNeverLessAccurate) {
  const std::size_t band = GetParam();
  Rng rng(7);
  auto locs = geostat::perturbed_grid_locations(128, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, 0.06, 0.5, 1e-6);

  tile::SymTileMatrix a(128, 32);
  geostat::fill_covariance_tiles(a, model, locs, 1);
  const la::Matrix<double> full = a.to_full();
  la::Matrix<double> ref = full;
  ASSERT_EQ(la::potrf(ref.view()), 0);
  for (std::size_t j = 0; j < 128; ++j)
    for (std::size_t i = 0; i < j; ++i) ref(i, j) = 0.0;

  cholesky::TlrCompressOptions copt;
  copt.tol = 1e-8;
  copt.band_size = band;
  copt.lr_fp32 = false;
  cholesky::compress_offband(a, copt, 1);
  cholesky::FactorOptions fopt;
  ASSERT_EQ(cholesky::tile_cholesky_tlr(a, 1e-8, fopt).info, 0);
  const double err = rel_frobenius_diff(test::reconstruct_lower(a), ref);
  EXPECT_LT(err, 1e-5) << "band " << band;
}

INSTANTIATE_TEST_SUITE_P(Bands, BandWidthSweep, ::testing::Values(1, 2, 3, 4));

// --------------------------------------------------------------------

class WorkerSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkerSweep, TlrFactorizationDeterministicAcrossWorkerCounts) {
  const std::size_t workers = GetParam();
  Rng rng(9);
  auto locs = geostat::perturbed_grid_locations(128, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, 0.08, 0.5, 1e-6);

  auto run = [&](std::size_t w) {
    tile::SymTileMatrix a(128, 32);
    geostat::fill_covariance_tiles(a, model, locs, 1);
    cholesky::TlrCompressOptions copt;
    copt.tol = 1e-8;
    copt.band_size = 2;
    copt.lr_fp32 = false;
    cholesky::compress_offband(a, copt, 1);
    cholesky::FactorOptions fopt;
    fopt.workers = w;
    EXPECT_EQ(cholesky::tile_cholesky_tlr(a, 1e-8, fopt).info, 0);
    return test::reconstruct_lower(a);
  };
  const auto base = run(1);
  const auto par = run(workers);
  EXPECT_LT(rel_frobenius_diff(par, base), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweep, ::testing::Values(2, 3, 5, 8));

// --------------------------------------------------------------------

TEST(FactorProperties, LogdetDecreasesWithNuggetRemoval) {
  // Sanity on the statistics: a larger nugget inflates the determinant.
  Rng rng(11);
  auto locs = geostat::perturbed_grid_locations(96, rng);
  double prev = -1e300;
  for (double nugget : {1e-6, 1e-2, 1e-1}) {
    const geostat::MaternCovariance model(1.0, 0.1, 0.5, nugget);
    la::Matrix<double> sigma = geostat::covariance_matrix(model, locs);
    ASSERT_EQ(la::potrf(sigma.view()), 0);
    double logdet = 0.0;
    for (std::size_t i = 0; i < 96; ++i) logdet += 2.0 * std::log(sigma(i, i));
    EXPECT_GT(logdet, prev);
    prev = logdet;
  }
}

TEST(FactorProperties, EvaluateIsDeterministicAcrossCalls) {
  Rng rng(13);
  auto locs = geostat::perturbed_grid_locations(128, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, 0.07, 0.5, 1e-6);
  const auto z = geostat::simulate_grf(model, locs, rng);
  core::ModelConfig cfg;
  cfg.variant = core::ComputeVariant::MPDenseTLR;
  cfg.tile_size = 32;
  cfg.workers = 3;
  cfg.auto_band = false;
  core::GsxModel m(model.clone(), cfg);
  const auto a = m.evaluate(model.params(), locs, z);
  const auto b = m.evaluate(model.params(), locs, z);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.loglik, b.loglik) << "same inputs, same DAG, same result";
}

}  // namespace
}  // namespace gsx
