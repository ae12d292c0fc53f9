// Column-pivoted QR and the RRQR low-rank rounding path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_solve.hpp"
#include "geostat/assemble.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"
#include "tlr/compression.hpp"
#include "tlr/lr_kernels.hpp"

namespace gsx {
namespace {

using gsx::test::max_abs_diff;
using gsx::test::random_lowrank;
using gsx::test::random_matrix;
using gsx::test::rel_frobenius_diff;

struct QrpShape {
  std::size_t m, n;
};

class QrPivotedTest : public ::testing::TestWithParam<QrpShape> {};

TEST_P(QrPivotedTest, ReconstructsWithPermutation) {
  const auto [m, n] = GetParam();
  const std::size_t p = std::min(m, n);
  Rng rng(m * 100 + n);
  const auto a0 = random_matrix(m, n, rng);
  auto r = a0;
  la::Matrix<double> q;
  std::vector<std::size_t> perm;
  EXPECT_EQ(la::qr_pivoted(r.view(), q, perm), p);

  // Q orthonormal (m x p).
  ASSERT_EQ(q.cols(), p);
  la::Matrix<double> qtq(p, p);
  la::gemm<double>(la::Trans::Trans, la::Trans::NoTrans, 1.0, q.cview(), q.cview(), 0.0,
                   qtq.view());
  EXPECT_LT(max_abs_diff(qtq, la::Matrix<double>::identity(p)), 1e-12);

  // Q R == A P (column perm[j] of A is column j of A*P).
  la::Matrix<double> qr(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, q.cview(),
                   Span2D<const double>(r.data(), p, n, m), 0.0, qr.view());
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_NEAR(qr(i, j), a0(i, perm[j]), 1e-11) << i << "," << j;

  // perm is a permutation of 0..n-1.
  std::vector<bool> seen(n, false);
  for (std::size_t p : perm) {
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }

  // Rank-revealing property: |R_jj| non-increasing.
  for (std::size_t j = 1; j < p; ++j)
    EXPECT_LE(std::fabs(r(j, j)), std::fabs(r(j - 1, j - 1)) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrPivotedTest,
                         ::testing::Values(QrpShape{6, 6}, QrpShape{20, 7},
                                           QrpShape{50, 12}, QrpShape{9, 1},
                                           QrpShape{64, 32}, QrpShape{7, 20},
                                           QrpShape{1, 9}, QrpShape{26, 32}));

TEST(QrPivoted, StopsOnExactTrailingNorm) {
  // Rank 6 plus a 1e-9 perturbation, tall and wide: a 1e-6 stop halts
  // after the 6 informative columns, and the dropped part A P - Q1 R1 is
  // exactly the trailing block left in place.
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{40, 30},
                      std::pair<std::size_t, std::size_t>{30, 40}}) {
    Rng rng(m + n);
    auto a0 = random_lowrank(m, n, 6, rng);
    const auto noise = random_matrix(m, n, rng);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) a0(i, j) += 1e-9 * noise(i, j);
    auto r = a0;
    la::Matrix<double> q;
    std::vector<std::size_t> perm;
    const std::size_t k = la::qr_pivoted(r.view(), q, perm, 1e-6);
    ASSERT_EQ(k, 6u);
    ASSERT_EQ(q.cols(), k);
    const double tail = la::norm_frobenius<double>(r.cview().sub(k, k, m - k, n - k));
    EXPECT_LE(tail, 1e-6);

    la::Matrix<double> diff(m, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) diff(i, j) = a0(i, perm[j]);
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, -1.0, q.cview(),
                     Span2D<const double>(r.data(), k, n, m), 1.0, diff.view());
    EXPECT_NEAR(la::norm_frobenius<double>(diff.cview()), tail, 1e-12);
  }
}

TEST(QrPivoted, UntriggeredStopLeavesFactorizationBitIdentical) {
  // The stop test only reads the trailing block: a threshold that never
  // fires gives the same bits as the plain factorization.
  Rng rng(12);
  const auto a0 = random_matrix(33, 21, rng);
  auto r1 = a0, r2 = a0;
  la::Matrix<double> q1, q2;
  std::vector<std::size_t> p1, p2;
  la::qr_pivoted(r1.view(), q1, p1);
  EXPECT_EQ(la::qr_pivoted(r2.view(), q2, p2, 1e-300), 21u);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(max_abs_diff(r1, r2), 0.0);
  EXPECT_EQ(max_abs_diff(q1, q2), 0.0);
}

TEST(QrPivoted, RevealsNumericalRank) {
  Rng rng(5);
  const auto a = random_lowrank(40, 20, 6, rng);
  auto r = a;
  la::Matrix<double> q;
  std::vector<std::size_t> perm;
  la::qr_pivoted(r.view(), q, perm);
  // Diagonal collapses after the true rank.
  EXPECT_GT(std::fabs(r(5, 5)), 1e-8);
  for (std::size_t j = 6; j < 20; ++j) EXPECT_LT(std::fabs(r(j, j)), 1e-10);
}

TEST(QrPivoted, HandlesZeroColumns) {
  la::Matrix<double> a(8, 4);
  Rng rng(6);
  for (std::size_t i = 0; i < 8; ++i) a(i, 2) = rng.normal();  // one nonzero column
  auto r = a;
  la::Matrix<double> q;
  std::vector<std::size_t> perm;
  la::qr_pivoted(r.view(), q, perm);
  EXPECT_EQ(perm[0], 2u);  // the only informative column pivots first
  EXPECT_GT(std::fabs(r(0, 0)), 0.0);
  for (std::size_t j = 1; j < 4; ++j) EXPECT_NEAR(r(j, j), 0.0, 1e-14);
}

TEST(RecompressRrqr, MatchesQrSvdValueWithinTolerance) {
  // RRQR rounding of the factors against the QR-first truncated SVD of their
  // dense product at the same tolerance: both meet it, so they agree to 2 tol.
  Rng rng(7);
  const std::size_t m = 40, n = 34, k = 10;
  auto u = random_matrix(m, k, rng);
  auto v = random_matrix(n, k, rng);
  la::Matrix<double> before(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   before.view());

  const tlr::Compressed svd = tlr::compress_svd(before.cview(), 1e-7);
  tlr::recompress(u, v, 1e-7);
  EXPECT_LE(tlr::lowrank_error(before.cview(), svd.u, svd.v), 1e-7 * 1.001);
  EXPECT_LE(tlr::lowrank_error(before.cview(), u, v), 1e-7 * 1.001);
  la::Matrix<double> svd_value(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, svd.u.cview(), svd.v.cview(),
                   0.0, svd_value.view());
  EXPECT_LE(tlr::lowrank_error(svd_value.cview(), u, v), 2e-7 * 1.001);
}

TEST(RecompressRrqr, ReducesInflatedRankCloseToSvd) {
  Rng rng(8);
  // Exact rank-4 block carried at rank 16.
  const auto a = random_lowrank(36, 30, 4, rng);
  tlr::Compressed c = tlr::compress_svd(a.cview(), 1e-14);
  const std::size_t k0 = c.rank();
  la::Matrix<double> u(36, 4 * k0), v(30, 4 * k0);
  for (std::size_t rep = 0; rep < 4; ++rep)
    for (std::size_t j = 0; j < k0; ++j) {
      for (std::size_t i = 0; i < 36; ++i) u(i, rep * k0 + j) = 0.25 * c.u(i, j);
      for (std::size_t i = 0; i < 30; ++i) v(i, rep * k0 + j) = c.v(i, j);
    }
  tlr::recompress(u, v, 1e-10);
  EXPECT_LE(u.cols(), k0 + 1);  // RRQR may keep one extra direction
  EXPECT_LE(tlr::lowrank_error(a.cview(), u, v), 1e-8);
}

TEST(LrAxpyRrqr, AccumulationMatchesOracle) {
  Rng rng(10);
  const std::size_t m = 24, n = 20;
  const auto uc0 = random_matrix(m, 5, rng);
  const auto vc0 = random_matrix(n, 5, rng);
  const auto up = random_matrix(m, 3, rng);
  const auto vp = random_matrix(n, 3, rng);

  la::Matrix<double> oracle(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, uc0.cview(), vc0.cview(),
                   0.0, oracle.view());
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.5, up.cview(), vp.cview(), 1.0,
                   oracle.view());

  auto uc = uc0;
  auto vc = vc0;
  tlr::lr_axpy_rounded(-1.5, tlr::LrProduct{up, vp}, uc, vc, 1e-9);
  EXPECT_LE(tlr::lowrank_error(oracle.cview(), uc, vc), 1e-8);
}

TEST(TlrCholeskyRrqr, EndToEndAccuracyMatchesDenseFactor) {
  // Full TLR factorization of a Matérn matrix, whose low-rank updates are
  // rounded by RRQR, against the dense FP64 tile factor of the same matrix.
  Rng rng(11);
  auto locs = geostat::perturbed_grid_locations(256, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, 0.03, 0.5, 1e-6);

  tile::SymTileMatrix dense(256, 32);
  geostat::fill_covariance_tiles(dense, model, locs, 1);
  tile::SymTileMatrix tlr = dense;
  cholesky::TlrCompressOptions copt;
  copt.tol = 1e-9;
  copt.band_size = 1;
  copt.lr_fp32 = false;
  cholesky::compress_offband(tlr, copt, 1);
  // A low-rank tile in a column j >= 1 takes j rounded updates.
  std::size_t rounded = 0;
  for (std::size_t j = 1; j < tlr.nt(); ++j)
    for (std::size_t i = j + 1; i < tlr.nt(); ++i)
      if (tlr.at(i, j).format() == tile::TileFormat::LowRank) rounded += j;
  ASSERT_GT(rounded, 0u);

  ASSERT_EQ(cholesky::tile_cholesky_tlr(tlr, 1e-9, {}).info, 0);
  ASSERT_EQ(cholesky::tile_cholesky_dense(dense, {}).info, 0);
  EXPECT_LT(rel_frobenius_diff(test::reconstruct_lower(tlr), test::reconstruct_lower(dense)),
            1e-8);
}

}  // namespace
}  // namespace gsx
