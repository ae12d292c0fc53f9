// Tile payloads, precision conversion, and the symmetric tile matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <type_traits>

#include "la/convert.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"
#include "tile/sym_tile_matrix.hpp"
#include "tile/tile.hpp"

namespace gsx::tile {
namespace {

using gsx::test::random_matrix;
using gsx::test::rel_frobenius_diff;

TEST(Tile, Dense64RoundTrip) {
  Rng rng(1);
  auto m = random_matrix(6, 4, rng);
  const auto m0 = m;
  Tile t = Tile::dense(std::move(m));
  EXPECT_EQ(t.format(), TileFormat::Dense);
  EXPECT_EQ(t.precision(), Precision::FP64);
  EXPECT_EQ(t.rows(), 6u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.rank(), 4u);
  EXPECT_EQ(t.bytes(), 6u * 4u * 8u);
  EXPECT_LT(rel_frobenius_diff(t.to_dense64(), m0), 1e-15);
  EXPECT_EQ(t.decision_code(), 'D');
}

TEST(Tile, ConvertDenseDownAndBack) {
  Rng rng(2);
  const auto m0 = random_matrix(8, 8, rng);
  Tile t = Tile::dense(m0);

  t.convert_dense(Precision::FP32);
  EXPECT_EQ(t.precision(), Precision::FP32);
  EXPECT_EQ(t.bytes(), 8u * 8u * 4u);
  EXPECT_EQ(t.decision_code(), 'S');
  EXPECT_LT(rel_frobenius_diff(t.to_dense64(), m0), 1e-6);

  t.convert_dense(Precision::FP16);
  EXPECT_EQ(t.decision_code(), 'H');
  EXPECT_EQ(t.bytes(), 8u * 8u * 2u);
  EXPECT_LT(rel_frobenius_diff(t.to_dense64(), m0), 2e-3);

  // Promotion does not recover lost bits but must not change values.
  const auto after16 = t.to_dense64();
  t.convert_dense(Precision::FP64);
  EXPECT_LT(rel_frobenius_diff(t.to_dense64(), after16), 1e-300);
}

TEST(Tile, ConvertIsIdempotent) {
  Rng rng(3);
  Tile t = Tile::dense(random_matrix(4, 4, rng));
  t.convert_dense(Precision::FP32);
  const auto snapshot = t.to_dense64();
  t.convert_dense(Precision::FP32);
  EXPECT_LT(rel_frobenius_diff(t.to_dense64(), snapshot), 1e-300);
}

TEST(Tile, DirectConversionMatchesThroughFp64) {
  // to_dense<T> and convert_dense convert straight from the stored matrix.
  // Widening to FP64 is exact, so the result must equal the conversion of an
  // FP64 copy bit for bit, for every pair of storage precisions (entries
  // from 1e-10 to 1e10 reach FP16's subnormals and overflow).
  Rng rng(9);
  la::Matrix<double> m = random_matrix(7, 5, rng);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 7; ++i)
      m(i, j) *= std::pow(10.0, 2.0 * static_cast<double>(i + j) - 10.0);
  const Precision all[] = {Precision::FP64, Precision::FP32, Precision::FP16,
                           Precision::BF16};
  for (const Precision from : all)
    for (const Precision to : all) {
      Tile t = Tile::dense(m);
      t.convert_dense(from);
      dispatch(to, [&]<typename T>() {
        la::Matrix<T> via(7, 5);
        if constexpr (std::is_same_v<T, double>) {
          via = t.to_dense64();
        } else {
          la::convert(t.to_dense64().cview(), via.view());
        }
        const la::Matrix<T> direct = t.to_dense<T>();
        Tile converted = t;
        converted.convert_dense(to);
        const std::size_t bytes = via.size() * sizeof(T);
        EXPECT_EQ(std::memcmp(direct.data(), via.data(), bytes), 0)
            << precision_name(from) << " -> " << precision_name(to);
        EXPECT_EQ(std::memcmp(converted.matrix<T>().data(), via.data(), bytes), 0)
            << precision_name(from) << " -> " << precision_name(to);
      });
    }
}

TEST(Tile, LowRankRepresentsProduct) {
  Rng rng(4);
  const auto u = random_matrix(10, 3, rng);
  const auto v = random_matrix(7, 3, rng);
  la::Matrix<double> expect(10, 7);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   expect.view());
  const Tile t = Tile::lowrank(u, v);
  EXPECT_EQ(t.format(), TileFormat::LowRank);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.rows(), 10u);
  EXPECT_EQ(t.cols(), 7u);
  EXPECT_EQ(t.bytes(), (10u + 7u) * 3u * 8u);
  EXPECT_EQ(t.decision_code(), 'L');
  EXPECT_LT(rel_frobenius_diff(t.to_dense64(), expect), 1e-14);
}

TEST(Tile, LowRank32HalvesFootprint) {
  Rng rng(5);
  const auto ud = random_matrix(10, 2, rng);
  const auto vd = random_matrix(10, 2, rng);
  la::Matrix<float> u(10, 2), v(10, 2);
  la::convert(ud.cview(), u.view());
  la::convert(vd.cview(), v.view());
  const Tile t = Tile::lowrank(u, v);
  EXPECT_EQ(t.bytes(), (10u + 10u) * 2u * 4u);
  EXPECT_EQ(t.decision_code(), 'l');
  la::Matrix<double> expect(10, 10);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, ud.cview(), vd.cview(), 0.0,
                   expect.view());
  EXPECT_LT(rel_frobenius_diff(t.to_dense64(), expect), 1e-6);
}

TEST(Tile, FrobeniusMatchesMaterialized) {
  Rng rng(6);
  Tile t = Tile::dense(random_matrix(9, 9, rng));
  const double direct = la::norm_frobenius<double>(t.to_dense64().cview());
  EXPECT_NEAR(t.frobenius(), direct, 1e-12);
  t.convert_dense(Precision::FP16);
  const double f16 = la::norm_frobenius<double>(t.to_dense64().cview());
  EXPECT_NEAR(t.frobenius(), f16, 1e-10);
}

TEST(Tile, WrongAccessorThrows) {
  Rng rng(7);
  Tile t = Tile::dense(random_matrix(3, 3, rng));
  EXPECT_THROW((void)t.matrix<float>(), InvalidArgument);
  EXPECT_THROW((void)t.factors<double>(), InvalidArgument);
  t.convert_dense(Precision::FP16);
  EXPECT_THROW((void)t.matrix<double>(), InvalidArgument);
  EXPECT_NO_THROW((void)t.matrix<half>());
}

TEST(Tile, RankMismatchThrows) {
  Rng rng(8);
  const auto u = random_matrix(5, 3, rng);
  const auto v = random_matrix(5, 2, rng);
  EXPECT_THROW(Tile::lowrank(u, v), InvalidArgument);
}

// ------------------------------------------------------- SymTileMatrix

TEST(SymTileMatrix, TileGeometryWithRaggedEdge) {
  const SymTileMatrix a(10, 4);  // 3 tiles: 4, 4, 2
  EXPECT_EQ(a.nt(), 3u);
  EXPECT_EQ(a.tile_dim(0), 4u);
  EXPECT_EQ(a.tile_dim(1), 4u);
  EXPECT_EQ(a.tile_dim(2), 2u);
  EXPECT_EQ(a.tile_offset(2), 8u);
  EXPECT_THROW((void)a.tile_dim(3), InvalidArgument);
}

TEST(SymTileMatrix, UpperTriangleAccessThrows) {
  SymTileMatrix a(8, 4);
  EXPECT_THROW((void)a.at(0, 1), InvalidArgument);
  EXPECT_NO_THROW((void)a.at(1, 0));
  EXPECT_NO_THROW((void)a.at(1, 1));
}

TEST(SymTileMatrix, GenerateMatchesElementFunction) {
  SymTileMatrix a(11, 4);
  // Symmetric but index-revealing generator (covariance functions are
  // symmetric by construction; the tile layout must preserve that).
  auto f = [](std::size_t i, std::size_t j) {
    return static_cast<double>(std::max(i, j) * 100 + std::min(i, j));
  };
  gsx::test::generate(a, f, 1);
  const auto full = a.to_full();
  for (std::size_t j = 0; j < 11; ++j)
    for (std::size_t i = j; i < 11; ++i) {
      EXPECT_DOUBLE_EQ(full(i, j), f(i, j));
      EXPECT_DOUBLE_EQ(full(j, i), f(i, j)) << "symmetric completion";
    }
}

TEST(SymTileMatrix, ParallelGenerationMatchesSequential) {
  auto f = [](std::size_t i, std::size_t j) {
    return 1.0 / (1.0 + static_cast<double>(i > j ? i - j : j - i));
  };
  SymTileMatrix seq(37, 8), par(37, 8);
  gsx::test::generate(seq, f, 1);
  gsx::test::generate(par, f, 4);
  EXPECT_LT(gsx::test::rel_frobenius_diff(par.to_full(), seq.to_full()), 1e-300);
}

TEST(SymTileMatrix, FrobeniusCountsOffDiagonalTwice) {
  SymTileMatrix a(8, 4);
  gsx::test::generate(a, [](std::size_t i, std::size_t j) { return (i == j) ? 2.0 : 1.0; }, 1);
  const auto full = a.to_full();
  EXPECT_NEAR(a.frobenius_norm(), la::norm_frobenius<double>(full.cview()), 1e-12);
}

TEST(SymTileMatrix, FootprintTracksConversions) {
  SymTileMatrix a(16, 4);
  gsx::test::generate(a, [](std::size_t, std::size_t) { return 1.0; }, 1);
  const std::size_t dense64 = a.footprint_bytes();
  EXPECT_EQ(dense64, a.dense_fp64_bytes());
  a.at(3, 0).convert_dense(Precision::FP16);
  EXPECT_EQ(a.footprint_bytes(), dense64 - 4 * 4 * 6);
}

TEST(SymTileMatrix, DecisionMapShape) {
  SymTileMatrix a(12, 4);
  gsx::test::generate(a, [](std::size_t, std::size_t) { return 1.0; }, 1);
  a.at(1, 0).convert_dense(Precision::FP32);
  a.at(2, 0).convert_dense(Precision::FP16);
  const auto map = a.decision_map();
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map[0], "D..");
  EXPECT_EQ(map[1], "SD.");
  EXPECT_EQ(map[2], "HDD");
  const auto counts = a.decision_counts();
  EXPECT_EQ(counts.at('D'), 4u);
  EXPECT_EQ(counts.at('S'), 1u);
  EXPECT_EQ(counts.at('H'), 1u);
}

}  // namespace
}  // namespace gsx::tile
