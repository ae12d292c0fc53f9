// Multi-RHS tile solves and kriging through the tile factor.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_solve.hpp"
#include "geostat/assemble.hpp"
#include "geostat/field.hpp"
#include "geostat/prediction.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx::cholesky {
namespace {

using gsx::test::krige;
using gsx::test::max_abs_diff;
using gsx::test::random_matrix;

struct Problem {
  std::vector<geostat::Location> locs;
  std::vector<double> z;
  geostat::MaternCovariance model{1.0, 0.08, 0.8, 1e-6};
};

Problem make_problem(std::size_t n, std::uint64_t seed = 3) {
  Rng rng(seed);
  Problem p;
  p.locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(p.locs);
  p.z = geostat::simulate_grf(p.model, p.locs, rng);
  return p;
}

tile::SymTileMatrix factor_dense(const Problem& p, std::size_t ts) {
  tile::SymTileMatrix a(p.locs.size(), ts);
  geostat::fill_covariance_tiles(a, p.model, p.locs, 1);
  FactorOptions opts;
  EXPECT_EQ(tile_cholesky_dense(a, opts).info, 0);
  return a;
}

tile::SymTileMatrix factor_tlr(const Problem& p, std::size_t ts, double tol) {
  tile::SymTileMatrix a(p.locs.size(), ts);
  geostat::fill_covariance_tiles(a, p.model, p.locs, 1);
  TlrCompressOptions copt;
  copt.tol = tol;
  copt.band_size = 1;
  copt.lr_fp32 = false;
  compress_offband(a, copt, 1);
  FactorOptions opts;
  EXPECT_EQ(tile_cholesky_tlr(a, tol, opts).info, 0);
  return a;
}

/// Solves an m-column batch at workers 1 and 3: the bits agree, and every
/// column matches its single-vector solve, so the column blocks cover each
/// column exactly once.
void expect_batch_solves_every_column_once(const tile::SymTileMatrix& a, std::size_t m) {
  Rng rng(5);
  const std::size_t n = a.n();
  const auto b = random_matrix(n, m, rng);
  const PackedOffdiag packed(a);
  la::Matrix<double> x1 = b, x3 = b;
  tile_forward_solve_multi(a, packed, x1.view(), 1);
  tile_forward_solve_multi(a, packed, x3.view(), 3);
  EXPECT_EQ(std::memcmp(x1.data(), x3.data(), n * m * sizeof(double)), 0);
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<double> col(&b(0, j), &b(0, j) + n);
    tile_forward_solve(a, col);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x3(i, j), col[i], 1e-11) << i << "," << j;
  }
}

// 7 columns: one column block.
TEST(MultiRhsSolve, MatchesColumnwiseSingleSolves) {
  const Problem p = make_problem(96);
  expect_batch_solves_every_column_once(factor_dense(p, 32), 7);
}

// 300 columns: 16 column blocks of 18 or 19 columns.
TEST(MultiRhsSolve, WideBatchSolvesEveryColumnOnce) {
  const Problem p = make_problem(96);
  expect_batch_solves_every_column_once(factor_dense(p, 32), 300);
}

// 33 columns, the narrowest batch cut in two: blocks of 16 and 17 columns,
// through low-rank tiles.
TEST(MultiRhsSolve, TwoBlockTlrBatchSolvesEveryColumnOnce) {
  const Problem p = make_problem(128);
  expect_batch_solves_every_column_once(factor_tlr(p, 32, 1e-10), 33);
}

TEST(MultiRhsSolve, BackwardInvertsForward) {
  const Problem p = make_problem(128);
  const auto a = factor_tlr(p, 32, 1e-10);
  const la::Matrix<double> sigma = [&] {
    tile::SymTileMatrix s(128, 32);
    geostat::fill_covariance_tiles(s, p.model, p.locs, 1);
    return s.to_full();
  }();

  Rng rng(6);
  const std::size_t m = 5;
  const auto b = random_matrix(128, m, rng);
  la::Matrix<double> x = b;
  tile_forward_solve_multi(a, PackedOffdiag(a), x.view());
  for (std::size_t j = 0; j < m; ++j)
    tile_backward_solve(a, std::span<double>(&x(0, j), 128));
  // Sigma * X == B within the compression tolerance.
  la::Matrix<double> rec(128, m);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, sigma.cview(), x.cview(),
                   0.0, rec.view());
  EXPECT_LT(max_abs_diff(rec, b), 1e-5);
}

TEST(TileKrige, MatchesDenseKrigingExactly) {
  const Problem p = make_problem(160);
  const auto a = factor_dense(p, 32);

  const std::size_t ntrain = 140;
  const std::span<const geostat::Location> train(p.locs.data(), ntrain);
  const std::span<const geostat::Location> test(p.locs.data() + ntrain,
                                                p.locs.size() - ntrain);
  const std::span<const double> ztrain(p.z.data(), ntrain);

  // Reference: dense kriging on the training subset.
  tile::SymTileMatrix at(ntrain, 32);
  geostat::fill_covariance_tiles(at, p.model, train, 1);
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(at, opts).info, 0);
  const auto tile_result = tile_krige(p.model, at, train, ztrain, test, true);
  const auto dense_result = krige(p.model, train, ztrain, test, true);

  ASSERT_EQ(tile_result.mean.size(), dense_result.mean.size());
  for (std::size_t i = 0; i < tile_result.mean.size(); ++i) {
    EXPECT_NEAR(tile_result.mean[i], dense_result.mean[i], 1e-8);
    EXPECT_NEAR(tile_result.variance[i], dense_result.variance[i], 1e-8);
  }
}

TEST(TileKrige, TlrFactorPredictsAccurately) {
  const Problem p = make_problem(192);
  const std::size_t ntrain = 160;
  const std::span<const geostat::Location> train(p.locs.data(), ntrain);
  const std::span<const geostat::Location> test(p.locs.data() + ntrain,
                                                p.locs.size() - ntrain);
  const std::span<const double> ztrain(p.z.data(), ntrain);

  Problem sub = p;
  sub.locs.assign(train.begin(), train.end());
  const auto a = factor_tlr(sub, 32, 1e-9);
  const auto tlr_result = tile_krige(p.model, a, train, ztrain, test, true);
  const auto dense_result = krige(p.model, train, ztrain, test, true);
  for (std::size_t i = 0; i < tlr_result.mean.size(); ++i) {
    EXPECT_NEAR(tlr_result.mean[i], dense_result.mean[i], 1e-4);
    EXPECT_NEAR(tlr_result.variance[i], dense_result.variance[i], 1e-4);
  }
}

TEST(TileKrige, VarianceAtTrainingLocationsIsNotNegative) {
  // Sigma_mm - ||W_j||^2 cancels exactly at a training location; unclamped,
  // rounding leaves many of those variances just below zero, and a standard
  // error taken from them is NaN.
  const Problem p = make_problem(160);
  const auto a = factor_dense(p, 32);
  const auto r = tile_krige(p.model, a, p.locs, p.z, p.locs, true);
  ASSERT_EQ(r.variance.size(), p.locs.size());
  for (std::size_t i = 0; i < r.variance.size(); ++i) {
    EXPECT_GE(r.variance[i], 0.0) << i;
    EXPECT_LT(r.variance[i], 1e-8) << i;
  }
}

TEST(TileKrige, RejectsMismatchedSizes) {
  const Problem p = make_problem(64);
  const auto a = factor_dense(p, 32);
  const std::vector<geostat::Location> test = {{0.5, 0.5, 0}};
  const std::vector<double> wrong(63, 0.0);
  EXPECT_THROW(
      tile_krige(p.model, a, std::span<const geostat::Location>(p.locs.data(), 63), wrong,
                 test, false),
      InvalidArgument);
}

}  // namespace
}  // namespace gsx::cholesky
