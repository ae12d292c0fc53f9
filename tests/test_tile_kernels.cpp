// Direct tests of the precision-dispatched tile kernels (Algorithm 1 task
// bodies): lead-operand semantics, on-demand conversion, all precisions.
#include <gtest/gtest.h>

#include <cmath>

#include "cholesky/tile_kernels.hpp"
#include "la/convert.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx::cholesky {
namespace {

using gsx::test::random_matrix;
using gsx::test::random_spd;
using gsx::test::rel_frobenius_diff;
using tile::Tile;

Tile spd_tile64(std::size_t n, Rng& rng) {
  auto m = random_spd(n, rng);
  return Tile::dense(std::move(m));
}

TEST(Operands, F64ZeroCopyForMatchingTile) {
  Rng rng(1);
  Tile t = Tile::dense(random_matrix(6, 6, rng));
  const DenseOperand<double> op(t);
  EXPECT_EQ(op.view().data(), t.matrix<double>().data()) << "FP64 tile must not be copied";
}

TEST(Operands, ConvertOnDemandForMismatch) {
  Rng rng(2);
  Tile t = Tile::dense(random_matrix(6, 6, rng));
  const auto original = t.to_dense64();
  t.convert_dense(Precision::FP32);
  const DenseOperand<double> op(t);
  EXPECT_NE(op.view().data(), static_cast<const double*>(nullptr));
  // Values match the rounded storage, not the original.
  la::Matrix<double> got(6, 6);
  for (std::size_t j = 0; j < 6; ++j)
    for (std::size_t i = 0; i < 6; ++i) got(i, j) = op.view()(i, j);
  EXPECT_LT(rel_frobenius_diff(got, t.to_dense64()), 1e-300);
  EXPECT_GT(rel_frobenius_diff(got, original), 0.0);
}

TEST(Operands, F16AndBf16Trimming) {
  Rng rng(3);
  Tile t = Tile::dense(random_matrix(5, 4, rng));
  const DenseOperand<half> h(t);
  const DenseOperand<bfloat16> b(t);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(h.view()(i, j).bits(), half(t.matrix<double>()(i, j)).bits());
      EXPECT_EQ(b.view()(i, j).bits(), bfloat16(t.matrix<double>()(i, j)).bits());
    }
}

TEST(PotrfTile, RequiresDenseFp64) {
  Rng rng(4);
  Tile ok = spd_tile64(8, rng);
  EXPECT_EQ(potrf_tile(ok), 0);
  Tile bad = spd_tile64(8, rng);
  bad.convert_dense(Precision::FP32);
  EXPECT_THROW(potrf_tile(bad), InvalidArgument);
}

TEST(PotrfTile, ReportsNonSpd) {
  la::Matrix<double> m(4, 4);
  m(0, 0) = 1.0;
  m(1, 1) = -1.0;
  m(2, 2) = m(3, 3) = 1.0;
  Tile t = Tile::dense(std::move(m));
  EXPECT_EQ(potrf_tile(t), 2);
}

class GemmTilePrecision : public ::testing::TestWithParam<Precision> {};

TEST_P(GemmTilePrecision, LeadOperandSetsKernelAndAccuracy) {
  const Precision p = GetParam();
  Rng rng(17);
  const std::size_t ts = 12;
  Tile a = Tile::dense(random_matrix(ts, ts, rng));
  Tile b = Tile::dense(random_matrix(ts, ts, rng));
  Tile c = Tile::dense(random_matrix(ts, ts, rng));
  la::Matrix<double> oracle = c.to_dense64();
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.to_dense64().cview(),
                   b.to_dense64().cview(), 1.0, oracle.view());

  c.convert_dense(p);
  // Account for the initial storage rounding of C.
  la::Matrix<double> oracle_rounded = c.to_dense64();
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.to_dense64().cview(),
                   b.to_dense64().cview(), 1.0, oracle_rounded.view());

  gemm_tile(a, b, c, 0.0);
  EXPECT_EQ(c.precision(), p) << "storage precision is sticky";
  const double tol = (p == Precision::FP64)   ? 1e-13
                     : (p == Precision::FP32) ? 1e-5
                                              : 6e-2;  // 16-bit formats
  EXPECT_LT(rel_frobenius_diff(c.to_dense64(), oracle_rounded), tol)
      << precision_name(p);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, GemmTilePrecision,
                         ::testing::Values(Precision::FP64, Precision::FP32,
                                           Precision::FP16, Precision::BF16),
                         [](const auto& info) {
                           return std::string(precision_name(info.param));
                         });

class TrsmTilePrecision : public ::testing::TestWithParam<Precision> {};

TEST_P(TrsmTilePrecision, SolveAccuracyTracksStorage) {
  const Precision p = GetParam();
  Rng rng(23);
  const std::size_t ts = 10;
  Tile lkk = spd_tile64(ts, rng);
  ASSERT_EQ(potrf_tile(lkk), 0);
  Tile amk = Tile::dense(random_matrix(ts, ts, rng));

  la::Matrix<double> oracle = amk.to_dense64();
  auto ov = oracle.view();
  la::trsm_right_trans<double>(lkk.matrix<double>().cview(), ov);

  amk.convert_dense(p);
  trsm_tile(lkk, amk);
  EXPECT_EQ(amk.precision(), p);
  const double tol = (p == Precision::FP64)   ? 1e-13
                     : (p == Precision::FP32) ? 1e-4
                                              : 8e-2;
  EXPECT_LT(rel_frobenius_diff(amk.to_dense64(), oracle), tol) << precision_name(p);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, TrsmTilePrecision,
                         ::testing::Values(Precision::FP64, Precision::FP32,
                                           Precision::FP16, Precision::BF16),
                         [](const auto& info) {
                           return std::string(precision_name(info.param));
                         });

TEST(SyrkTile, AccumulatesInFp64OnDiagonal) {
  Rng rng(29);
  const std::size_t ts = 9;
  Tile panel = Tile::dense(random_matrix(ts, ts, rng));
  Tile diag = spd_tile64(ts, rng);
  la::Matrix<double> oracle = diag.to_dense64();
  la::syrk<double>(la::Uplo::Lower, la::Trans::NoTrans, -1.0,
                   panel.to_dense64().cview(), 1.0, oracle.view());

  syrk_tile(panel, diag);
  // Compare lower triangles (SYRK only touches the lower).
  for (std::size_t j = 0; j < ts; ++j)
    for (std::size_t i = j; i < ts; ++i)
      EXPECT_NEAR(diag.matrix<double>()(i, j), oracle(i, j), 1e-12);
}

TEST(SyrkTile, PromotesLowPrecisionPanel) {
  Rng rng(31);
  const std::size_t ts = 8;
  Tile panel = Tile::dense(random_matrix(ts, ts, rng));
  panel.convert_dense(Precision::FP16);
  Tile diag = spd_tile64(ts, rng);
  la::Matrix<double> oracle = diag.to_dense64();
  la::syrk<double>(la::Uplo::Lower, la::Trans::NoTrans, -1.0,
                   panel.to_dense64().cview(), 1.0, oracle.view());
  syrk_tile(panel, diag);
  for (std::size_t j = 0; j < ts; ++j)
    for (std::size_t i = j; i < ts; ++i)
      EXPECT_NEAR(diag.matrix<double>()(i, j), oracle(i, j), 1e-12)
          << "FP64 accumulate of the rounded panel";
}

TEST(TrsmTile, LowRankTileSolvesOnlyV) {
  Rng rng(33);
  const std::size_t ts = 12;
  Tile lkk = spd_tile64(ts, rng);
  ASSERT_EQ(potrf_tile(lkk), 0);
  const auto u = random_matrix(ts, 3, rng);
  Tile amk = Tile::lowrank(u, random_matrix(ts, 3, rng));
  la::Matrix<double> oracle = amk.to_dense64();
  la::trsm_right_trans<double>(lkk.matrix<double>().cview(), oracle.view());

  trsm_tile(lkk, amk);
  EXPECT_EQ(amk.format(), tile::TileFormat::LowRank);
  EXPECT_EQ(rel_frobenius_diff(amk.factors<double>().u, u), 0.0) << "U is untouched";
  EXPECT_LT(rel_frobenius_diff(amk.to_dense64(), oracle), 1e-12);
}

TEST(SyrkTile, LowRankPanelUpdatesDenseDiagonal) {
  Rng rng(35);
  const std::size_t ts = 10;
  const Tile panel = Tile::lowrank(random_matrix(ts, 2, rng), random_matrix(ts, 2, rng));
  Tile diag = spd_tile64(ts, rng);
  la::Matrix<double> oracle = diag.to_dense64();
  la::syrk<double>(la::Uplo::Lower, la::Trans::NoTrans, -1.0,
                   panel.to_dense64().cview(), 1.0, oracle.view());

  syrk_tile(panel, diag);
  for (std::size_t j = 0; j < ts; ++j)
    for (std::size_t i = j; i < ts; ++i) EXPECT_NEAR(diag.matrix<double>()(i, j), oracle(i, j), 1e-12);
}

TEST(GemmMixed, DenseOutputWithLrOperandsRoundsToStorage) {
  Rng rng(37);
  const std::size_t ts = 16;
  const auto u = random_matrix(ts, 3, rng);
  const auto v = random_matrix(ts, 3, rng);
  Tile a = Tile::lowrank(u, v);
  Tile b = Tile::dense(random_matrix(ts, ts, rng));
  Tile c = Tile::dense(random_matrix(ts, ts, rng));
  c.convert_dense(Precision::FP32);

  la::Matrix<double> oracle = c.to_dense64();
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.to_dense64().cview(),
                   b.to_dense64().cview(), 1.0, oracle.view());

  gemm_tile(a, b, c, 1e-9);
  EXPECT_EQ(c.format(), tile::TileFormat::Dense);
  EXPECT_EQ(c.precision(), Precision::FP32);
  EXPECT_LT(rel_frobenius_diff(c.to_dense64(), oracle), 1e-5);
}

TEST(GemmMixed, LrOutputAccumulatesAndRecompresses) {
  Rng rng(41);
  const std::size_t ts = 16;
  Tile a = Tile::lowrank(random_matrix(ts, 2, rng), random_matrix(ts, 2, rng));
  Tile b = Tile::lowrank(random_matrix(ts, 4, rng), random_matrix(ts, 4, rng));
  Tile c = Tile::lowrank(random_matrix(ts, 3, rng), random_matrix(ts, 3, rng));

  la::Matrix<double> oracle = c.to_dense64();
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.to_dense64().cview(),
                   b.to_dense64().cview(), 1.0, oracle.view());

  gemm_tile(a, b, c, 1e-10);
  EXPECT_EQ(c.format(), tile::TileFormat::LowRank);
  EXPECT_LE(c.rank(), 5u);  // 3 + min(2,4)
  EXPECT_LT(rel_frobenius_diff(c.to_dense64(), oracle), 1e-8);
}

TEST(GemmMixed, Fp32LrOutputStaysFp32) {
  Rng rng(43);
  const std::size_t ts = 12;
  Tile a = Tile::lowrank(random_matrix(ts, 2, rng), random_matrix(ts, 2, rng));
  Tile b = Tile::dense(random_matrix(ts, ts, rng));
  la::Matrix<float> u32(ts, 3), v32(ts, 3);
  la::convert(random_matrix(ts, 3, rng).cview(), u32.view());
  la::convert(random_matrix(ts, 3, rng).cview(), v32.view());
  Tile c = Tile::lowrank(u32, v32);

  la::Matrix<double> oracle = c.to_dense64();
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.to_dense64().cview(),
                   b.to_dense64().cview(), 1.0, oracle.view());

  gemm_tile(a, b, c, 1e-8);
  EXPECT_EQ(c.precision(), Precision::FP32);
  EXPECT_EQ(c.format(), tile::TileFormat::LowRank);
  EXPECT_LT(rel_frobenius_diff(c.to_dense64(), oracle), 1e-4);
}

}  // namespace
}  // namespace gsx::cholesky
