// TLR tile Cholesky: compression decisions and factorization accuracy.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cholesky/factorize.hpp"
#include "cholesky/tile_solve.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx::cholesky {
namespace {

using gsx::test::reconstruct_lower;
using gsx::test::rel_frobenius_diff;

/// Matérn covariance tiles over Morton-sorted 2-D locations: the real
/// application structure with low off-diagonal ranks.
tile::SymTileMatrix matern_tiles(std::size_t n, std::size_t ts, double range,
                                 std::uint64_t seed = 17) {
  Rng rng(seed);
  std::vector<geostat::Location> locs = geostat::perturbed_grid_locations(n, rng);
  geostat::sort_morton(locs);
  const geostat::MaternCovariance model(1.0, range, 0.5, 1e-6);
  tile::SymTileMatrix a(n, ts);
  geostat::fill_covariance_tiles(a, model, locs, 1);
  return a;
}

la::Matrix<double> reference_chol(const tile::SymTileMatrix& a) {
  la::Matrix<double> full = a.to_full();
  EXPECT_EQ(la::potrf(full.view()), 0);
  for (std::size_t j = 0; j < full.cols(); ++j)
    for (std::size_t i = 0; i < j; ++i) full(i, j) = 0.0;
  return full;
}

TEST(CompressOffband, BandTilesStayDense) {
  auto a = matern_tiles(128, 32, 0.05);
  TlrCompressOptions copt;
  copt.band_size = 2;
  copt.lr_fp32 = false;
  const CompressStats cs = compress_offband(a, copt, 1);
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i) {
      if (i - j < 2) {
        EXPECT_EQ(a.at(i, j).format(), tile::TileFormat::Dense);
      }
    }
  EXPECT_GT(cs.lr_tiles, 0u);
  EXPECT_LT(cs.bytes_after, cs.bytes_before);
}

TEST(CompressOffband, CompressionErrorWithinTolerance) {
  auto a = matern_tiles(128, 32, 0.05);
  const auto before = a.to_full();
  TlrCompressOptions copt;
  copt.tol = 1e-6;
  copt.band_size = 1;
  copt.lr_fp32 = false;
  compress_offband(a, copt, 1);
  const auto after = a.to_full();
  // Each compressed tile is within tol; total error <= nt * tol (loose).
  double diff = 0.0;
  for (std::size_t j = 0; j < 128; ++j)
    for (std::size_t i = 0; i < 128; ++i) {
      const double d = after(i, j) - before(i, j);
      diff += d * d;
    }
  EXPECT_LT(std::sqrt(diff), 1e-6 * a.nt() * a.nt());
}

TEST(CompressOffband, WeakCorrelationGivesLowerRanks) {
  // A square tile stays low-rank only below half its side (its factors must
  // store fewer entries than it does), so the matrix is large enough for
  // strongly correlated tiles to stay low-rank too.
  auto weak = matern_tiles(384, 32, 0.03);
  auto strong = matern_tiles(384, 32, 0.3);
  TlrCompressOptions copt;
  copt.band_size = 1;
  copt.lr_fp32 = false;
  const CompressStats ws = compress_offband(weak, copt, 1);
  const CompressStats ss = compress_offband(strong, copt, 1);
  ASSERT_GT(ss.lr_tiles, 0u);
  EXPECT_LT(ws.avg_rank, ss.avg_rank)
      << "weak correlation must compress to lower ranks (paper Fig. 9)";
  EXPECT_LT(ws.reverted_tiles, ss.reverted_tiles);
}

TEST(CompressOffband, HighRankTilesRevertToDense) {
  auto a = matern_tiles(96, 32, 0.5);  // strong correlation: high ranks
  TlrCompressOptions copt;
  copt.band_size = 1;
  copt.max_rank = 2;  // absurdly low cap: everything reverts
  copt.lr_fp32 = false;
  const CompressStats cs = compress_offband(a, copt, 1);
  EXPECT_GT(cs.reverted_tiles, 0u);
  EXPECT_EQ(cs.lr_tiles + cs.reverted_tiles, a.nt() * (a.nt() - 1) / 2);
}

TEST(CompressOffband, ParallelMatchesSequential) {
  auto a1 = matern_tiles(128, 32, 0.05);
  auto a2 = matern_tiles(128, 32, 0.05);
  TlrCompressOptions copt;
  copt.band_size = 1;
  copt.lr_fp32 = false;
  compress_offband(a1, copt, 1);
  compress_offband(a2, copt, 4);
  EXPECT_LT(rel_frobenius_diff(a2.to_full(), a1.to_full()), 1e-14);
}

TEST(CompressTile, RejectsNonPositiveTolerance) {
  // compress_tile is what the auto-band walk and src/dist call directly, so
  // it checks the tolerance itself: at tol 0 it would keep every tile dense
  // after a full-rank QR and SVD.
  auto a = matern_tiles(64, 32, 0.05);
  TlrCompressOptions copt;
  copt.tol = 0.0;
  EXPECT_THROW(compress_tile(a, 1, 0, a.frobenius_norm(), copt), InvalidArgument);
  copt.tol = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(compress_tile(a, 1, 0, a.frobenius_norm(), copt), InvalidArgument);
  EXPECT_EQ(a.at(1, 0).format(), tile::TileFormat::Dense);
}

// A low-rank tile is kept only when its factors store fewer entries than
// the dense tile: rank * (rows + cols) < rows * cols. The 4 x 64 ragged tile
// of a 68 x 68 matrix at tile 64 stores 256 entries dense, 272 at rank 4
// and 204 at rank 3, under the rank cap of 32 either way.
TEST(CompressTile, ThinTileStaysDenseUnlessFactorsAreSmaller) {
  for (const std::size_t rank : {std::size_t{4}, std::size_t{3}}) {
    Rng rng(rank);
    const la::Matrix<double> u = test::random_matrix(4, rank, rng);
    const la::Matrix<double> v = test::random_matrix(64, rank, rng);
    tile::SymTileMatrix a(68, 64);
    test::generate(a, [&](std::size_t gi, std::size_t gj) {
      if (gi < 64 || gj >= 64) return gi == gj ? 1.0 : 0.0;
      double s = 0.0;
      for (std::size_t l = 0; l < rank; ++l) s += u(gi - 64, l) * v(gj, l);
      return s;
    });
    TlrCompressOptions copt;
    copt.tol = 1e-10;
    copt.lr_fp32 = false;
    compress_tile(a, 1, 0, a.frobenius_norm(), copt);
    const tile::Tile& t = a.at(1, 0);
    if (rank == 4) {
      EXPECT_EQ(t.format(), tile::TileFormat::Dense);
    } else {
      ASSERT_EQ(t.format(), tile::TileFormat::LowRank);
      EXPECT_EQ(t.rank(), 3u);
    }
  }
}

// Matérn (1, 0.1, 0.5) at n = 2500, tile 64, tol 1e-8, band 2: the ragged
// 4-row tile row compresses to rank ~4. No low-rank tile may store as many
// entries as its dense form.
TEST(CompressOffband, NoLowRankTileOutgrowsItsDenseForm) {
  auto a = matern_tiles(2500, 64, 0.1, 1);
  TlrCompressOptions copt;
  copt.tol = 1e-8;
  copt.band_size = 2;
  const CompressStats cs = compress_offband(a, copt, 2);
  EXPECT_GT(cs.lr_tiles, 600u);
  std::size_t outgrown = 0;
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j + 2; i < a.nt(); ++i) {
      const tile::Tile& t = a.at(i, j);
      if (t.format() == tile::TileFormat::LowRank &&
          t.rank() * (t.rows() + t.cols()) >= t.rows() * t.cols())
        ++outgrown;
    }
  EXPECT_EQ(outgrown, 0u);
}

struct TlrCase {
  std::size_t n, ts, band, workers;
  double tol;
};

class TlrCholesky : public ::testing::TestWithParam<TlrCase> {};

TEST_P(TlrCholesky, FactorAccuracyTracksTolerance) {
  const auto c = GetParam();
  auto a = matern_tiles(c.n, c.ts, 0.06);
  const la::Matrix<double> expect = reference_chol(a);

  TlrCompressOptions copt;
  copt.tol = c.tol;
  copt.band_size = c.band;
  copt.lr_fp32 = false;
  compress_offband(a, copt, 1);

  FactorOptions fopt;
  fopt.workers = c.workers;
  const FactorReport rep = tile_cholesky_tlr(a, c.tol, fopt);
  ASSERT_EQ(rep.info, 0);

  // The factor L~ satisfies L~ L~^T ~= A within the compression accuracy.
  const la::Matrix<double> l = reconstruct_lower(a);
  la::Matrix<double> rec(c.n, c.n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, l.cview(), l.cview(), 0.0,
                   rec.view());
  la::Matrix<double> lref(c.n, c.n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, expect.cview(),
                   expect.cview(), 0.0, lref.view());
  const double err = rel_frobenius_diff(rec, lref);
  EXPECT_LT(err, c.tol * 1e3) << "reconstruction error should track tolerance";
}

INSTANTIATE_TEST_SUITE_P(Cases, TlrCholesky,
                         ::testing::Values(TlrCase{128, 32, 1, 1, 1e-8},
                                           TlrCase{128, 32, 2, 1, 1e-8},
                                           TlrCase{128, 32, 1, 4, 1e-8},
                                           TlrCase{144, 32, 2, 2, 1e-6},  // ragged
                                           TlrCase{128, 32, 1, 1, 1e-10}));

TEST(TlrCholeskyAccuracy, TighterToleranceIsMoreAccurate) {
  double prev = -1.0;
  for (double tol : {1e-3, 1e-6, 1e-10}) {
    auto a = matern_tiles(128, 32, 0.06);
    const la::Matrix<double> expect = reference_chol(a);
    TlrCompressOptions copt;
    copt.tol = tol;
    copt.band_size = 1;
    copt.lr_fp32 = false;
    compress_offband(a, copt, 1);
    FactorOptions fopt;
    ASSERT_EQ(tile_cholesky_tlr(a, tol, fopt).info, 0);
    const double err = rel_frobenius_diff(reconstruct_lower(a), expect);
    if (prev >= 0.0) {
      EXPECT_LT(err, prev);
    }
    prev = err;
  }
}

TEST(TlrCholeskyAccuracy, LogdetCloseToReference) {
  auto a = matern_tiles(160, 32, 0.06);
  const la::Matrix<double> ref = reference_chol(a);
  double expect = 0.0;
  for (std::size_t i = 0; i < 160; ++i) expect += 2.0 * std::log(ref(i, i));

  TlrCompressOptions copt;
  copt.tol = 1e-9;
  copt.band_size = 1;
  compress_offband(a, copt, 1);
  FactorOptions fopt;
  ASSERT_EQ(tile_cholesky_tlr(a, 1e-9, fopt).info, 0);
  EXPECT_NEAR(tile_logdet(a), expect, 1e-4 * std::fabs(expect));
}

TEST(TlrCholeskyAccuracy, MixedPrecisionLrStorageStillAccurate) {
  auto a = matern_tiles(128, 32, 0.06);
  const la::Matrix<double> expect = reference_chol(a);
  TlrCompressOptions copt;
  copt.tol = 1e-6;
  copt.band_size = 1;
  copt.lr_fp32 = true;  // allow FP32 LR factors where the norm rule permits
  copt.eps_target = 1e-6;
  compress_offband(a, copt, 1);
  FactorOptions fopt;
  ASSERT_EQ(tile_cholesky_tlr(a, 1e-6, fopt).info, 0);
  EXPECT_LT(rel_frobenius_diff(reconstruct_lower(a), expect), 1e-2);
}

TEST(TlrCholeskyAccuracy, ParallelMatchesSequentialClosely) {
  auto a1 = matern_tiles(128, 32, 0.06);
  auto a2 = matern_tiles(128, 32, 0.06);
  TlrCompressOptions copt;
  copt.tol = 1e-8;
  copt.band_size = 1;
  copt.lr_fp32 = false;
  compress_offband(a1, copt, 1);
  compress_offband(a2, copt, 1);
  FactorOptions seq, par;
  seq.workers = 1;
  par.workers = 6;
  ASSERT_EQ(tile_cholesky_tlr(a1, 1e-8, seq).info, 0);
  ASSERT_EQ(tile_cholesky_tlr(a2, 1e-8, par).info, 0);
  // Identical DAG and deterministic kernels: identical results.
  EXPECT_LT(rel_frobenius_diff(reconstruct_lower(a2), reconstruct_lower(a1)), 1e-14);
}

TEST(TlrCholeskyFootprint, CompressedFootprintSmaller) {
  auto a = matern_tiles(384, 32, 0.03);
  const std::size_t dense_bytes = a.footprint_bytes();
  TlrCompressOptions copt;
  copt.tol = 1e-8;
  copt.band_size = 1;
  const CompressStats cs = compress_offband(a, copt, 1);
  // At laptop scale the reduction is smaller than the paper's 79% at n=1M,
  // but must already be substantial and must grow with n (see the bench).
  EXPECT_LT(a.footprint_bytes(), (dense_bytes * 7) / 10);
  EXPECT_EQ(cs.bytes_after, a.footprint_bytes());

  auto small = matern_tiles(128, 32, 0.03);
  const std::size_t small_dense = small.footprint_bytes();
  compress_offband(small, copt, 1);
  const double small_ratio = static_cast<double>(small.footprint_bytes()) /
                             static_cast<double>(small_dense);
  const double big_ratio =
      static_cast<double>(a.footprint_bytes()) / static_cast<double>(dense_bytes);
  EXPECT_LT(big_ratio, small_ratio) << "memory reduction must improve with n";
}

}  // namespace
}  // namespace gsx::cholesky
