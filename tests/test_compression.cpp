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

struct MethodCase {
  CompressionMethod method;
  const char* name;
};

// gtest appends the printed parameter to each test's name; its default byte
// dump would print this struct's padding and the address of `name`, which
// change from run to run.
void PrintTo(const MethodCase& c, std::ostream* os) { *os << c.name; }

class CompressionMethods : public ::testing::TestWithParam<MethodCase> {};

TEST_P(CompressionMethods, MeetsAbsoluteTolerance) {
  // A 1-D exponential block, and a separated tile of the application's
  // matrix on which stopping on a heuristic (ACA's ||u|| ||v||) left the
  // error above the tolerance.
  for (const la::Matrix<double>& a :
       {covariance_block(40, 36, 1.5), morton_matern(0.1).at(2, 0).to_dense64()}) {
    for (double tol : {1e-2, 1e-4, 1e-8}) {
      const Compressed c = compress(GetParam().method, a.cview(), tol, TolMode::Absolute);
      EXPECT_LE(lowrank_error(a.cview(), c.u, c.v), tol * 1.0001)
          << GetParam().name << " " << a.rows() << "x" << a.cols() << " tol=" << tol;
    }
  }
}

TEST_P(CompressionMethods, MeetsRelativeTolerance) {
  const auto a = covariance_block(32, 32, 2.0);
  const double norm = la::norm_frobenius<double>(a.cview());
  for (double tol : {1e-3, 1e-6}) {
    const Compressed c =
        compress(GetParam().method, a.cview(), tol, TolMode::RelativeFrobenius);
    EXPECT_LE(lowrank_error(a.cview(), c.u, c.v), tol * norm * 1.0001)
        << GetParam().name << " tol=" << tol;
  }
}

TEST_P(CompressionMethods, RecoversExactRank) {
  Rng rng(21);
  const auto a = random_lowrank(30, 25, 4, rng);
  const Compressed c =
      compress(GetParam().method, a.cview(), 1e-10, TolMode::RelativeFrobenius);
  EXPECT_GE(c.rank(), 4u) << GetParam().name;
  EXPECT_LE(c.rank(), 8u) << GetParam().name << ": rank should stay near the true rank";
  EXPECT_LE(lowrank_error(a.cview(), c.u, c.v),
            1e-9 * la::norm_frobenius<double>(a.cview()));
}

TEST_P(CompressionMethods, TighterToleranceNeverLowersRank) {
  const auto a = covariance_block(36, 36, 1.2);
  const Compressed loose = compress(GetParam().method, a.cview(), 1e-2, TolMode::Absolute);
  const Compressed tight = compress(GetParam().method, a.cview(), 1e-9, TolMode::Absolute);
  EXPECT_LE(loose.rank(), tight.rank()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(All, CompressionMethods,
                         ::testing::Values(MethodCase{CompressionMethod::SVD, "svd"},
                                           MethodCase{CompressionMethod::ACA, "aca"}),
                         [](const auto& info) { return info.param.name; });

TEST(CompressSvd, ZeroMatrixGivesRankZero) {
  const la::Matrix<double> a(10, 10);
  const Compressed c = compress_svd(a.cview(), 1e-8, TolMode::Absolute);
  EXPECT_EQ(c.rank(), 0u);
}

TEST(CompressSvd, RectangularBlocks) {
  Rng rng(31);
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{20, 8},
                      std::pair<std::size_t, std::size_t>{8, 20}}) {
    const auto a = random_lowrank(m, n, 3, rng);
    const Compressed c = compress_svd(a.cview(), 1e-12, TolMode::RelativeFrobenius);
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
    std::vector<TolMode> modes{TolMode::Absolute};
    if (range == 0.1) modes.push_back(TolMode::RelativeFrobenius);
    for (std::size_t j = 0; j < a.nt(); ++j)
      for (std::size_t i = j + 1; i < a.nt(); ++i) {
        const la::Matrix<double> t = a.at(i, j).to_dense64();
        if (t.rows() < t.cols()) ++wide;
        la::Matrix<double> u, v;
        std::vector<double> s;
        la::svd_jacobi(t, u, s, v);
        for (TolMode mode : modes) {
          const double threshold = (mode == TolMode::Absolute)
                                       ? 1e-8
                                       : 1e-8 * la::norm_frobenius<double>(t.cview());
          const Compressed c = compress_svd(t.cview(), 1e-8, mode);
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
  const Compressed c = compress_svd(r.cview(), 1e-8, TolMode::Absolute);
  EXPECT_EQ(c.rank(), 128u);
  EXPECT_LE(lowrank_error(r.cview(), c.u, c.v), 1e-8);

  tile::SymTileMatrix a(256, 128);
  a.at(1, 0).assign_dense64(la::Matrix<double>(r));
  cholesky::compress_tile(a, 1, 0, la::norm_frobenius<double>(r.cview()),
                          cholesky::TlrCompressOptions{});
  EXPECT_EQ(a.at(1, 0).format(), tile::TileFormat::Dense);
  EXPECT_EQ(max_abs_diff(a.at(1, 0).to_dense64(), r), 0.0);
}

TEST(Recompress, ReducesInflatedRank) {
  Rng rng(41);
  // Build an exactly rank-3 block represented with rank 12 factors.
  const auto a = random_lowrank(24, 20, 3, rng);
  Compressed c = compress_svd(a.cview(), 1e-14, TolMode::Absolute);
  const std::size_t true_rank = c.rank();
  // Inflate: duplicate columns scaled by 0.5 (same span, higher rank).
  la::Matrix<double> u2(24, 2 * true_rank), v2(20, 2 * true_rank);
  for (std::size_t j = 0; j < true_rank; ++j) {
    for (std::size_t i = 0; i < 24; ++i) {
      u2(i, j) = 0.5 * c.u(i, j);
      u2(i, true_rank + j) = 0.5 * c.u(i, j);
    }
    for (std::size_t i = 0; i < 20; ++i) {
      v2(i, j) = c.v(i, j);
      v2(i, true_rank + j) = c.v(i, j);
    }
  }
  recompress(u2, v2, 1e-10, TolMode::Absolute, RoundingMethod::QrSvd);
  EXPECT_EQ(u2.cols(), true_rank);
  EXPECT_LE(lowrank_error(a.cview(), u2, v2), 1e-8);
}

TEST(Recompress, PreservesValueWithinTolerance) {
  Rng rng(42);
  const std::size_t m = 30, n = 26, k = 9;
  auto u = random_matrix(m, k, rng);
  auto v = random_matrix(n, k, rng);
  la::Matrix<double> before(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   before.view());
  recompress(u, v, 1e-6, TolMode::Absolute, RoundingMethod::QrSvd);
  EXPECT_LE(lowrank_error(before.cview(), u, v), 1e-6 * 1.0001);
}

TEST(Recompress, RankZeroIsNoop) {
  la::Matrix<double> u(10, 0), v(8, 0);
  recompress(u, v, 1e-8, TolMode::Absolute, RoundingMethod::QrSvd);
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
  recompress(u, v, 1e-10, TolMode::Absolute, RoundingMethod::QrSvd);
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
  const Compressed c = compress_svd(block.cview(), 1e-8, TolMode::Absolute);
  EXPECT_LT(c.rank(), b / 4) << "separated covariance blocks must be low-rank";
}

}  // namespace
}  // namespace gsx::tlr
