// Low-rank compression: error bounds, rank recovery, recompression.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cholesky/factorize.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"
#include "tile/sym_tile_matrix.hpp"
#include "tlr/compression.hpp"

namespace gsx::tlr {
namespace {

using gsx::test::max_abs_diff;
using gsx::test::random_lowrank;
using gsx::test::random_matrix;

/// The application's matrix: Matérn (nu = 0.8) over a Morton-ordered
/// jittered 2-D grid, n = 1000 in tiles of 128, so the last tile row holds
/// ragged 104 x 128 (wide) tiles.
tile::SymTileMatrix morton_matern(double range) {
  Rng rng(1);
  auto locs = geostat::perturbed_grid_locations(1000, rng);
  geostat::sort_morton(locs);
  tile::SymTileMatrix a(1000, 128);
  geostat::fill_covariance_tiles(a, geostat::MaternCovariance(1.0, range, 0.8), locs, 1);
  return a;
}

/// Smallest k with sqrt(sum_{i>=k} s_i^2) <= threshold, s descending.
std::size_t truncation_rank(const std::vector<double>& s, double threshold) {
  std::size_t k = s.size();
  double tail = 0.0;
  while (k > 0 && std::sqrt(tail + s[k - 1] * s[k - 1]) <= threshold) {
    tail += s[k - 1] * s[k - 1];
    --k;
  }
  return k;
}

/// A covariance-like block: smooth decay with distance, numerically low-rank.
la::Matrix<double> covariance_block(std::size_t m, std::size_t n, double sep) {
  la::Matrix<double> a(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) {
      const double xi = static_cast<double>(i) / static_cast<double>(m);
      const double xj = sep + static_cast<double>(j) / static_cast<double>(n);
      a(i, j) = std::exp(-std::fabs(xi - xj) * 3.0);
    }
  return a;
}

TEST(CompressSvd, MeetsAbsoluteTolerance) {
  // A 1-D exponential block, and a separated tile of the application's
  // matrix.
  for (const la::Matrix<double>& a :
       {covariance_block(40, 36, 1.5), morton_matern(0.1).at(2, 0).to_dense64()}) {
    for (double tol : {1e-2, 1e-4, 1e-8}) {
      const Compressed c = compress_svd(a.cview(), tol);
      EXPECT_LE(lowrank_error(a.cview(), c.u, c.v), tol * 1.0001)
          << a.rows() << "x" << a.cols() << " tol=" << tol;
    }
  }
}

TEST(CompressSvd, RecoversExactRank) {
  Rng rng(21);
  const auto a = random_lowrank(30, 25, 4, rng);
  const double tol = 1e-10 * la::norm_frobenius<double>(a.cview());
  const Compressed c = compress_svd(a.cview(), tol);
  EXPECT_GE(c.rank(), 4u);
  EXPECT_LE(c.rank(), 8u) << "rank should stay near the true rank";
  EXPECT_LE(lowrank_error(a.cview(), c.u, c.v), 10 * tol);
}

TEST(CompressSvd, TighterToleranceNeverLowersRank) {
  const auto a = covariance_block(36, 36, 1.2);
  const Compressed loose = compress_svd(a.cview(), 1e-2);
  const Compressed tight = compress_svd(a.cview(), 1e-9);
  EXPECT_LE(loose.rank(), tight.rank());
}

TEST(CompressSvd, ZeroMatrixGivesRankZero) {
  const la::Matrix<double> a(10, 10);
  const Compressed c = compress_svd(a.cview(), 1e-8);
  EXPECT_EQ(c.rank(), 0u);
}

TEST(CompressSvd, RectangularBlocks) {
  Rng rng(31);
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{20, 8},
                      std::pair<std::size_t, std::size_t>{8, 20}}) {
    const auto a = random_lowrank(m, n, 3, rng);
    const Compressed c =
        compress_svd(a.cview(), 1e-12 * la::norm_frobenius<double>(a.cview()));
    EXPECT_EQ(c.u.rows(), m);
    EXPECT_EQ(c.v.rows(), n);
    EXPECT_LE(lowrank_error(a.cview(), c.u, c.v),
              1e-10 * la::norm_frobenius<double>(a.cview()));
  }
}

TEST(CompressSvd, MatchesFullTileSvdOnMortonMaternTiles) {
  // Every off-diagonal tile, the ragged wide ones included: the QR-first
  // SVD meets the bound and keeps the rank of the full-tile Jacobi SVD.
  std::size_t wide = 0;
  for (double range : {0.03, 0.1}) {
    const tile::SymTileMatrix a = morton_matern(range);
    for (std::size_t j = 0; j < a.nt(); ++j)
      for (std::size_t i = j + 1; i < a.nt(); ++i) {
        const la::Matrix<double> t = a.at(i, j).to_dense64();
        if (t.rows() < t.cols()) ++wide;
        la::Matrix<double> u, v;
        std::vector<double> s;
        la::svd_jacobi(t, u, s, v);
        // At range 0.1 also at a threshold relative to the tile's norm.
        std::vector<double> thresholds{1e-8};
        if (range == 0.1) thresholds.push_back(1e-8 * la::norm_frobenius<double>(t.cview()));
        for (const double threshold : thresholds) {
          const Compressed c = compress_svd(t.cview(), threshold);
          EXPECT_LE(lowrank_error(t.cview(), c.u, c.v), threshold)
              << "range " << range << " tile (" << i << "," << j << ")";
          EXPECT_EQ(c.rank(), truncation_rank(s, threshold))
              << "range " << range << " tile (" << i << "," << j << ")";
        }
      }
  }
  EXPECT_EQ(wide, 14u);  // 7 ragged tiles per range
}

TEST(CompressSvd, FullRankTileStaysDenseInCompressTile) {
  // A full-rank tile runs the QR to completion and the SVD over all of R;
  // its rank exceeds tile/2, so compress_tile keeps it dense and untouched.
  Rng rng(51);
  const la::Matrix<double> r = random_matrix(128, 128, rng);
  const Compressed c = compress_svd(r.cview(), 1e-8);
  EXPECT_EQ(c.rank(), 128u);
  EXPECT_LE(lowrank_error(r.cview(), c.u, c.v), 1e-8);

  tile::SymTileMatrix a(256, 128);
  a.at(1, 0).assign_dense64(la::Matrix<double>(r));
  cholesky::compress_tile(a, 1, 0, la::norm_frobenius<double>(r.cview()),
                          cholesky::TlrCompressOptions{});
  EXPECT_EQ(a.at(1, 0).format(), tile::TileFormat::Dense);
  EXPECT_EQ(max_abs_diff(a.at(1, 0).to_dense64(), r), 0.0);
}

TEST(Recompress, PreservesValueWithinTolerance) {
  Rng rng(42);
  const std::size_t m = 30, n = 26, k = 9;
  auto u = random_matrix(m, k, rng);
  auto v = random_matrix(n, k, rng);
  la::Matrix<double> before(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   before.view());
  recompress(u, v, 1e-6);
  EXPECT_LE(lowrank_error(before.cview(), u, v), 1e-6 * 1.0001);
}

TEST(Recompress, RankZeroIsNoop) {
  la::Matrix<double> u(10, 0), v(8, 0);
  recompress(u, v, 1e-8);
  EXPECT_EQ(u.cols(), 0u);
}

TEST(Recompress, WideFactorsFallBackToDenseSvd) {
  Rng rng(43);
  // k > min(m, n): the QR path is invalid; must fall back gracefully.
  const std::size_t m = 6, n = 5, k = 9;
  auto u = random_matrix(m, k, rng);
  auto v = random_matrix(n, k, rng);
  la::Matrix<double> before(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   before.view());
  recompress(u, v, 1e-10);
  EXPECT_LE(u.cols(), std::min(m, n));
  EXPECT_LE(lowrank_error(before.cview(), u, v), 1e-8);
}

TEST(Compression, MatérnOffDiagonalBlockIsLowRank) {
  // The actual application structure: a far off-diagonal block of a Matérn
  // covariance matrix over 1-D sorted locations compresses to low rank.
  const geostat::MaternCovariance model(1.0, 0.1, 0.5);
  const std::size_t b = 48;
  la::Matrix<double> block(b, b);
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = 0; i < b; ++i) {
      const geostat::Location p{static_cast<double>(i) / b, 0.0, 0.0};
      const geostat::Location q{2.0 + static_cast<double>(j) / b, 0.0, 0.0};
      block(i, j) = model(p, q);
    }
  const Compressed c = compress_svd(block.cview(), 1e-8);
  EXPECT_LT(c.rank(), b / 4) << "separated covariance blocks must be low-rank";
}

}  // namespace
}  // namespace gsx::tlr
