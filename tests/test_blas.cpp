// Level-3 BLAS kernel tests against naive oracles, across shapes and flags.
#include <gtest/gtest.h>

#include <tuple>

#include "la/blas.hpp"
#include "la/half_blas.hpp"
#include "la/convert.hpp"
#include "test_utils.hpp"

namespace gsx::la {
namespace {

using gsx::test::max_abs_diff;
using gsx::test::naive_gemm;
using gsx::test::random_matrix;

// ------------------------------------------------------------------ GEMM

struct GemmCase {
  std::size_t m, n, k;
  Trans ta, tb;
  double alpha, beta;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveOracle) {
  const GemmCase c = GetParam();
  Rng rng(c.m * 1000003 + c.n * 101 + c.k);
  const auto a = (c.ta == Trans::NoTrans) ? random_matrix(c.m, c.k, rng)
                                          : random_matrix(c.k, c.m, rng);
  const auto b = (c.tb == Trans::NoTrans) ? random_matrix(c.k, c.n, rng)
                                          : random_matrix(c.n, c.k, rng);
  const auto c0 = random_matrix(c.m, c.n, rng);

  la::Matrix<double> result = c0;
  gemm<double>(c.ta, c.tb, c.alpha, a.cview(), b.cview(), c.beta, result.view());
  const auto oracle = naive_gemm<double>(c.ta, c.tb, c.alpha, a, b, c.beta, c0);
  EXPECT_LT(max_abs_diff(result, oracle), 1e-11 * static_cast<double>(c.k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmTest,
    ::testing::Values(
        GemmCase{7, 5, 9, Trans::NoTrans, Trans::NoTrans, 1.0, 0.0},
        GemmCase{7, 5, 9, Trans::NoTrans, Trans::Trans, 1.0, 1.0},
        GemmCase{7, 5, 9, Trans::Trans, Trans::NoTrans, -1.0, 1.0},
        GemmCase{7, 5, 9, Trans::Trans, Trans::Trans, 2.0, 0.5},
        GemmCase{1, 1, 1, Trans::NoTrans, Trans::NoTrans, 1.0, 1.0},
        GemmCase{33, 17, 300, Trans::NoTrans, Trans::Trans, -1.0, 1.0},   // crosses k-block
        GemmCase{64, 64, 64, Trans::NoTrans, Trans::NoTrans, 1.0, -1.0},
        GemmCase{13, 1, 7, Trans::Trans, Trans::Trans, 1.0, 0.0},
        GemmCase{1, 13, 7, Trans::NoTrans, Trans::NoTrans, 0.5, 2.0},
        GemmCase{40, 40, 513, Trans::Trans, Trans::NoTrans, 1.0, 1.0}));  // two k-blocks

TEST(Gemm, AlphaZeroOnlyScalesC) {
  Rng rng(5);
  const auto a = random_matrix(4, 6, rng);
  const auto b = random_matrix(6, 3, rng);
  auto c = random_matrix(4, 3, rng);
  const auto c0 = c;
  gemm<double>(Trans::NoTrans, Trans::NoTrans, 0.0, a.cview(), b.cview(), 2.0, c.view());
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(c(i, j), 2.0 * c0(i, j));
}

TEST(Gemm, BetaZeroIgnoresGarbageInC) {
  Rng rng(6);
  const auto a = random_matrix(4, 5, rng);
  const auto b = random_matrix(5, 3, rng);
  la::Matrix<double> c(4, 3, std::nan(""));
  gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a.cview(), b.cview(), 0.0, c.view());
  const auto oracle = naive_gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a, b, 0.0,
                                         la::Matrix<double>(4, 3));
  EXPECT_LT(max_abs_diff(c, oracle), 1e-12);
}

TEST(Gemm, ShapeMismatchThrows) {
  Rng rng(7);
  const auto a = random_matrix(4, 5, rng);
  const auto b = random_matrix(6, 3, rng);  // inner mismatch: 5 vs 6
  la::Matrix<double> c(4, 3);
  EXPECT_THROW(gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a.cview(), b.cview(), 0.0,
                            c.view()),
               InvalidArgument);
}

TEST(Gemm, FloatKernelMatchesDoubleOracle) {
  Rng rng(8);
  const auto ad = random_matrix(12, 9, rng);
  const auto bd = random_matrix(9, 10, rng);
  la::Matrix<float> a(12, 9), b(9, 10), c(12, 10);
  convert(ad.cview(), a.view());
  convert(bd.cview(), b.view());
  gemm<float>(Trans::NoTrans, Trans::NoTrans, 1.0f, a.cview(), b.cview(), 0.0f, c.view());
  const auto oracle = naive_gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, ad, bd, 0.0,
                                         la::Matrix<double>(12, 10));
  for (std::size_t j = 0; j < 10; ++j)
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_NEAR(static_cast<double>(c(i, j)), oracle(i, j), 1e-4);
}

// ------------------------------------------------------------------ SYRK

struct SyrkCase {
  std::size_t n, k;
  Uplo uplo;
  Trans trans;
  double alpha, beta;
};

class SyrkTest : public ::testing::TestWithParam<SyrkCase> {};

TEST_P(SyrkTest, MatchesGemmOnTriangle) {
  const SyrkCase c = GetParam();
  Rng rng(c.n * 31 + c.k);
  const auto a = (c.trans == Trans::NoTrans) ? random_matrix(c.n, c.k, rng)
                                             : random_matrix(c.k, c.n, rng);
  const auto c0 = random_matrix(c.n, c.n, rng);

  la::Matrix<double> result = c0;
  syrk<double>(c.uplo, c.trans, c.alpha, a.cview(), c.beta, result.view());

  const Trans tb = (c.trans == Trans::NoTrans) ? Trans::Trans : Trans::NoTrans;
  const auto oracle = naive_gemm<double>(c.trans, tb, c.alpha, a, a, c.beta, c0);

  for (std::size_t j = 0; j < c.n; ++j) {
    for (std::size_t i = 0; i < c.n; ++i) {
      const bool in_triangle = (c.uplo == Uplo::Lower) ? (i >= j) : (i <= j);
      if (in_triangle) {
        EXPECT_NEAR(result(i, j), oracle(i, j), 1e-11 * static_cast<double>(c.k + 1));
      } else {
        EXPECT_DOUBLE_EQ(result(i, j), c0(i, j)) << "opposite triangle must be untouched";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, SyrkTest,
    ::testing::Values(SyrkCase{6, 4, Uplo::Lower, Trans::NoTrans, 1.0, 0.0},
                      SyrkCase{6, 4, Uplo::Lower, Trans::Trans, -1.0, 1.0},
                      SyrkCase{6, 4, Uplo::Upper, Trans::NoTrans, 2.0, 0.5},
                      SyrkCase{6, 4, Uplo::Upper, Trans::Trans, 1.0, 1.0},
                      SyrkCase{1, 1, Uplo::Lower, Trans::NoTrans, 1.0, 0.0},
                      SyrkCase{31, 17, Uplo::Lower, Trans::NoTrans, -1.0, 1.0},
                      SyrkCase{16, 33, Uplo::Upper, Trans::Trans, 1.0, 0.0},
                      // Shapes on the packed triangle sweep (n*n*k >= 16384):
                      // a tile-64 trailing update and a deep upper one.
                      SyrkCase{64, 64, Uplo::Lower, Trans::NoTrans, -1.0, 1.0},
                      SyrkCase{100, 300, Uplo::Upper, Trans::Trans, 0.5, -0.5}));

// ------------------------------------------------------------------ TRSM

struct TrsmCase {
  std::size_t m, n;
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
};

class TrsmTest : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmTest, SolveThenMultiplyRecoversRhs) {
  const TrsmCase c = GetParam();
  Rng rng(c.m * 131 + c.n * 7 + static_cast<std::size_t>(c.side) * 2 +
          static_cast<std::size_t>(c.uplo));
  const std::size_t na = (c.side == Side::Left) ? c.m : c.n;

  // Well-conditioned triangular matrix.
  auto a = random_matrix(na, na, rng, 0.1);
  for (std::size_t i = 0; i < na; ++i) a(i, i) = 2.0 + 0.1 * static_cast<double>(i);
  // Zero the unused triangle so the oracle multiply can use the full matrix.
  for (std::size_t j = 0; j < na; ++j)
    for (std::size_t i = 0; i < na; ++i)
      if ((c.uplo == Uplo::Lower) ? (i < j) : (i > j)) a(i, j) = 0.0;
  auto a_mult = a;
  if (c.diag == Diag::Unit)
    for (std::size_t i = 0; i < na; ++i) a_mult(i, i) = 1.0;

  const double alpha = 1.5;
  const auto b0 = random_matrix(c.m, c.n, rng);
  la::Matrix<double> x = b0;
  trsm<double>(c.side, c.uplo, c.trans, c.diag, alpha, a.cview(), x.view());

  // Check op(A) X == alpha * B (left) or X op(A) == alpha * B (right).
  la::Matrix<double> recovered(c.m, c.n);
  if (c.side == Side::Left) {
    recovered = naive_gemm<double>(c.trans, Trans::NoTrans, 1.0, a_mult, x, 0.0,
                                   la::Matrix<double>(c.m, c.n));
  } else {
    recovered = naive_gemm<double>(Trans::NoTrans, c.trans, 1.0, x, a_mult, 0.0,
                                   la::Matrix<double>(c.m, c.n));
  }
  for (std::size_t j = 0; j < c.n; ++j)
    for (std::size_t i = 0; i < c.m; ++i)
      EXPECT_NEAR(recovered(i, j), alpha * b0(i, j), 1e-9) << "(" << i << "," << j << ")";
}

std::vector<TrsmCase> all_trsm_cases() {
  std::vector<TrsmCase> cases;
  for (Side s : {Side::Left, Side::Right})
    for (Uplo u : {Uplo::Lower, Uplo::Upper})
      for (Trans t : {Trans::NoTrans, Trans::Trans})
        for (Diag d : {Diag::NonUnit, Diag::Unit}) cases.push_back({9, 6, s, u, t, d});
  // A few degenerate / rectangular extremes.
  cases.push_back({1, 8, Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit});
  cases.push_back({8, 1, Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit});
  cases.push_back({24, 24, Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit});
  // Shapes whose recursion splits onto packed coupling GEMMs: the tile-128
  // panel solve and a 4-right-hand-side forward solve.
  cases.push_back({128, 128, Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit});
  cases.push_back({128, 4, Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSixteenCombos, TrsmTest, ::testing::ValuesIn(all_trsm_cases()));

// ------------------------------------------------------------------ GEMV

TEST(Gemv, MatchesGemmColumn) {
  Rng rng(17);
  const auto a = random_matrix(9, 7, rng);
  std::vector<double> x(7), y(9, 0.5);
  for (auto& v : x) v = rng.normal();
  auto y0 = y;
  gemv<double>(Trans::NoTrans, 2.0, a.cview(), x.data(), 3.0, y.data());
  for (std::size_t i = 0; i < 9; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 7; ++j) s += a(i, j) * x[j];
    EXPECT_NEAR(y[i], 2.0 * s + 3.0 * y0[i], 1e-12);
  }
}

TEST(Gemv, TransposedMatchesDotProducts) {
  Rng rng(18);
  const auto a = random_matrix(9, 7, rng);
  std::vector<double> x(9), y(7, -1.0);
  for (auto& v : x) v = rng.normal();
  gemv<double>(Trans::Trans, 1.0, a.cview(), x.data(), 0.0, y.data());
  for (std::size_t j = 0; j < 7; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < 9; ++i) s += a(i, j) * x[i];
    EXPECT_NEAR(y[j], s, 1e-12);
  }
}

// ------------------------------------------------------------- SHGEMM

TEST(Shgemm, AccumulatesInFp32) {
  Rng rng(21);
  const auto ad = random_matrix(16, 12, rng);
  const auto bd = random_matrix(14, 12, rng);
  la::Matrix<half> a(16, 12), b(14, 12);
  convert(ad.cview(), a.view());
  convert(bd.cview(), b.view());
  la::Matrix<float> c(16, 14);
  shgemm(Trans::NoTrans, Trans::Trans, 1.0f, a.cview(), b.cview(), 0.0f, c.view());

  // Oracle: exact product of the *rounded* half inputs (accumulation in
  // FP32 of half-precision values loses little at k = 12).
  la::Matrix<double> ar(16, 12), br(14, 12);
  convert(a.cview(), ar.view());
  convert(b.cview(), br.view());
  const auto oracle = naive_gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, ar, br, 0.0,
                                         la::Matrix<double>(16, 14));
  for (std::size_t j = 0; j < 14; ++j)
    for (std::size_t i = 0; i < 16; ++i)
      EXPECT_NEAR(static_cast<double>(c(i, j)), oracle(i, j), 5e-5 * 12);
}

TEST(Hgemm, RoundsResultToHalf) {
  Rng rng(22);
  const auto ad = random_matrix(8, 8, rng);
  const auto bd = random_matrix(8, 8, rng);
  la::Matrix<half> a(8, 8), b(8, 8), c(8, 8);
  convert(ad.cview(), a.view());
  convert(bd.cview(), b.view());
  hgemm(Trans::NoTrans, Trans::Trans, -1.0f, a.cview(), b.cview(), 1.0f, c.view());
  // Every entry must be exactly representable in half.
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 8; ++i) {
      const float v = static_cast<float>(c(i, j));
      EXPECT_EQ(half(v).bits(), c(i, j).bits());
    }
}

}  // namespace
}  // namespace gsx::la
