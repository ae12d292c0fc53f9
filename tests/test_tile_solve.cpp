// Tile triangular solves, log-likelihood assembly, reconstruction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_solve.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/likelihood.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx::cholesky {
namespace {

using gsx::test::reconstruct_lower;

tile::SymTileMatrix spd_tiles(std::size_t n, std::size_t ts) {
  tile::SymTileMatrix a(n, ts);
  gsx::test::generate(a,
      [&](std::size_t i, std::size_t j) {
        const double d = static_cast<double>(i > j ? i - j : j - i);
        return std::exp(-0.4 * d) + (i == j ? 0.3 : 0.0);
      },
      1);
  return a;
}

TEST(TileSolve, ForwardSolveMatchesDense) {
  const std::size_t n = 48;
  auto a = spd_tiles(n, 16);
  la::Matrix<double> full = a.to_full();
  ASSERT_EQ(la::potrf(full.view()), 0);

  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);

  Rng rng(3);
  std::vector<double> z(n), zt;
  for (auto& v : z) v = rng.normal();
  zt = z;
  tile_forward_solve(a, zt);

  // Dense forward solve oracle.
  std::vector<double> zo = z;
  for (std::size_t j = 0; j < n; ++j) {
    zo[j] /= full(j, j);
    for (std::size_t i = j + 1; i < n; ++i) zo[i] -= full(i, j) * zo[j];
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(zt[i], zo[i], 1e-10);
}

TEST(TileSolve, BackwardInvertsForward) {
  const std::size_t n = 64;
  auto a = spd_tiles(n, 16);
  const la::Matrix<double> sigma = a.to_full();
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);

  Rng rng(5);
  std::vector<double> z(n);
  for (auto& v : z) v = rng.normal();

  // x = Sigma^{-1} z via forward+backward; then Sigma x == z.
  std::vector<double> x = z;
  tile_forward_solve(a, x);
  tile_backward_solve(a, x);
  std::vector<double> rec(n, 0.0);
  la::gemv<double>(la::Trans::NoTrans, 1.0, sigma.cview(), x.data(), 0.0, rec.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec[i], z[i], 1e-8);
}

// The vector solves run la::ref's left solves on the diagonal tiles. These
// oracles spell out the per-tile substitution loops those solves replaced,
// zero skip included, with la::gemv on every dense off-diagonal tile
// widened to FP64, so the solves keep the bits of l(theta) and kriging.
void substitution_forward(const tile::SymTileMatrix& l, std::vector<double>& z) {
  for (std::size_t k = 0; k < l.nt(); ++k) {
    double* zk = z.data() + l.tile_offset(k);
    const auto& d = l.at(k, k).matrix<double>();
    for (std::size_t j = 0; j < l.tile_dim(k); ++j) {
      zk[j] /= d(j, j);
      const double zj = zk[j];
      if (zj == 0.0) continue;
      for (std::size_t i = j + 1; i < l.tile_dim(k); ++i) zk[i] -= d(i, j) * zj;
    }
    for (std::size_t i = k + 1; i < l.nt(); ++i)
      la::gemv<double>(la::Trans::NoTrans, -1.0, l.at(i, k).to_dense64().cview(), zk, 1.0,
                       z.data() + l.tile_offset(i));
  }
}

void substitution_backward(const tile::SymTileMatrix& l, std::vector<double>& z) {
  for (std::size_t k = l.nt(); k-- > 0;) {
    double* zk = z.data() + l.tile_offset(k);
    for (std::size_t i = k + 1; i < l.nt(); ++i)
      la::gemv<double>(la::Trans::Trans, -1.0, l.at(i, k).matrix<double>().cview(),
                       z.data() + l.tile_offset(i), 1.0, zk);
    const auto& d = l.at(k, k).matrix<double>();
    for (std::size_t jj = l.tile_dim(k); jj-- > 0;) {
      double s = zk[jj];
      for (std::size_t i = jj + 1; i < l.tile_dim(k); ++i) s -= d(i, jj) * zk[i];
      zk[jj] = s / d(jj, jj);
    }
  }
}

/// A dense FP64 factor with a ragged last tile (70 = 4 * 16 + 6), and a
/// right-hand side led by +0, -0, -0: the zero skip keeps the third entry
/// -0 (an unskipped update would make it +0).
struct SubstitutionProblem {
  tile::SymTileMatrix l = spd_tiles(70, 16);
  std::vector<double> z = std::vector<double>(70);
  SubstitutionProblem() {
    FactorOptions opts;
    EXPECT_EQ(tile_cholesky_dense(l, opts).info, 0);
    Rng rng(13);
    for (auto& v : z) v = rng.normal();
    z[0] = 0.0;
    z[1] = -0.0;
    z[2] = -0.0;
  }
};

TEST(TileSolve, ForwardSolveKeepsSubstitutionBits) {
  const SubstitutionProblem p;
  std::vector<double> got = p.z, want = p.z;
  tile_forward_solve(p.l, got);
  substitution_forward(p.l, want);
  EXPECT_TRUE(std::signbit(got[2]));
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
}

TEST(TileSolve, ForwardSolveKeepsSubstitutionBitsOnDemotedTiles) {
  // The mixed-precision factor's storage: FP32 tiles are read in place,
  // 16-bit ones widened first; either way each product is the widened
  // tile's.
  SubstitutionProblem p;
  const Precision demoted[] = {Precision::FP32, Precision::FP16, Precision::BF16};
  std::size_t d = 0;
  for (std::size_t k = 0; k < p.l.nt(); ++k)
    for (std::size_t i = k + 1; i < p.l.nt(); ++i) p.l.at(i, k).convert_dense(demoted[d++ % 3]);
  std::vector<double> got = p.z, want = p.z;
  tile_forward_solve(p.l, got);
  substitution_forward(p.l, want);
  EXPECT_TRUE(std::signbit(got[2]));
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
}

TEST(TileSolve, BackwardSolveKeepsSubstitutionBits) {
  const SubstitutionProblem p;
  std::vector<double> got = p.z, want = p.z;
  tile_backward_solve(p.l, got);
  substitution_backward(p.l, want);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
}

TEST(TileSolve, SolvesThroughLowRankTiles) {
  // Build a Matérn matrix, compress, factor with TLR, and verify the solve
  // against the dense oracle.
  Rng rng(7);
  auto locs = geostat::perturbed_grid_locations(128, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, 0.06, 0.5, 1e-6);
  tile::SymTileMatrix a(128, 32);
  geostat::fill_covariance_tiles(a, model, locs, 1);
  const la::Matrix<double> sigma = a.to_full();

  TlrCompressOptions copt;
  copt.tol = 1e-10;
  copt.band_size = 1;
  copt.lr_fp32 = false;
  compress_offband(a, copt, 1);
  FactorOptions fopt;
  ASSERT_EQ(tile_cholesky_tlr(a, 1e-10, fopt).info, 0);

  std::vector<double> z(128);
  for (auto& v : z) v = rng.normal();
  std::vector<double> x = z;
  tile_forward_solve(a, x);
  tile_backward_solve(a, x);
  std::vector<double> rec(128, 0.0);
  la::gemv<double>(la::Trans::NoTrans, 1.0, sigma.cview(), x.data(), 0.0, rec.data());
  for (std::size_t i = 0; i < 128; ++i) EXPECT_NEAR(rec[i], z[i], 1e-5);
}

TEST(TileSolve, LoglikMatchesDenseReference) {
  Rng rng(9);
  auto locs = geostat::perturbed_grid_locations(96, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.2, 0.1, 0.8, 1e-4);
  std::vector<double> z(96);
  for (auto& v : z) v = rng.normal();

  const geostat::LoglikValue expect = geostat::dense_loglik(model, locs, z);
  ASSERT_TRUE(expect.ok);

  tile::SymTileMatrix a(96, 32);
  geostat::fill_covariance_tiles(a, model, locs, 1);
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  const geostat::LoglikValue got = tile_loglik(a, z);
  ASSERT_TRUE(got.ok);
  EXPECT_NEAR(got.logdet, expect.logdet, 1e-8 * std::fabs(expect.logdet) + 1e-10);
  EXPECT_NEAR(got.quadratic, expect.quadratic, 1e-7 * expect.quadratic);
  EXPECT_NEAR(got.loglik, expect.loglik, 1e-7 * std::fabs(expect.loglik));
}

TEST(TileSolve, ReconstructLowerIsTriangular) {
  auto a = spd_tiles(40, 16);
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  const la::Matrix<double> l = reconstruct_lower(a);
  for (std::size_t j = 0; j < 40; ++j)
    for (std::size_t i = 0; i < j; ++i) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_GT(l(i, i), 0.0);
}

TEST(TileSolve, LogdetRejectsUnfactoredGarbage) {
  tile::SymTileMatrix a(16, 8);
  gsx::test::generate(a, [](std::size_t i, std::size_t j) { return (i == j) ? -1.0 : 0.0; }, 1);
  EXPECT_THROW(tile_logdet(a), InvalidArgument);
}

TEST(TileSolve, SizeMismatchThrows) {
  auto a = spd_tiles(32, 16);
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  std::vector<double> wrong(31, 1.0);
  EXPECT_THROW(tile_forward_solve(a, wrong), InvalidArgument);
  EXPECT_THROW(tile_backward_solve(a, wrong), InvalidArgument);
  EXPECT_THROW(tile_loglik(a, wrong), InvalidArgument);
}

}  // namespace
}  // namespace gsx::cholesky
