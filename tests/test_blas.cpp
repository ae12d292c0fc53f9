// Level-3 BLAS kernel tests against naive oracles, across shapes and flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

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

const char* trans_name(Trans t) { return t == Trans::NoTrans ? "NoTrans" : "Trans"; }

// Names the test case; gtest's default print dumps bytes, padding included.
void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << "m=" << c.m << " n=" << c.n << " k=" << c.k << ' ' << trans_name(c.ta) << ' '
      << trans_name(c.tb) << " alpha=" << c.alpha << " beta=" << c.beta;
}

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

void PrintTo(const SyrkCase& c, std::ostream* os) {
  *os << "n=" << c.n << " k=" << c.k << ' ' << (c.uplo == Uplo::Lower ? "Lower" : "Upper")
      << ' ' << trans_name(c.trans) << " alpha=" << c.alpha << " beta=" << c.beta;
}

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

// The solves with a lower-triangular L: B := L^{-1} B (left), B := B * L^{-T}
// (right_trans) and the reference-only B := L^{-T} B (left_trans, the
// vector backward solve). A padded case solves on sub-views (ld > rows) of
// larger matrices, as the multi-RHS solve does on its column blocks.
enum class Solve { Left, LeftTrans, RightTrans };

struct TrsmCase {
  std::size_t m, n;
  Solve solve;
  std::size_t pad = 0;  ///< NaN rows/columns around L and B
};

void PrintTo(const TrsmCase& c, std::ostream* os) {
  *os << "m=" << c.m << " n=" << c.n << ' '
      << (c.solve == Solve::Left ? "Left" : c.solve == Solve::LeftTrans ? "LeftTrans" : "RightTrans")
      << " pad=" << c.pad;
}

class TrsmTest : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmTest, SolveThenMultiplyRecoversRhs) {
  const TrsmCase c = GetParam();
  Rng rng(c.m * 131 + c.n * 7 + static_cast<std::size_t>(c.solve));
  const std::size_t na = (c.solve == Solve::RightTrans) ? c.n : c.m;

  // Well-conditioned lower-triangular matrix; the zero upper triangle lets
  // the oracle multiply use the full matrix.
  auto l = random_matrix(na, na, rng, 0.1);
  for (std::size_t i = 0; i < na; ++i) l(i, i) = 2.0 + 0.1 * static_cast<double>(i);
  for (std::size_t j = 0; j < na; ++j)
    for (std::size_t i = 0; i < j; ++i) l(i, j) = 0.0;
  const auto b0 = random_matrix(c.m, c.n, rng);

  // The solve sees L and B at offset (pad, pad) of NaN-filled matrices,
  // with NaN in L's strict upper triangle too: it may read only L's lower
  // triangle and touch only B.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  la::Matrix<double> l_buf(na + 2 * c.pad, na + 2 * c.pad, nan);
  la::Matrix<double> x_buf(c.m + 2 * c.pad, c.n + 2 * c.pad, nan);
  for (std::size_t j = 0; j < na; ++j)
    for (std::size_t i = j; i < na; ++i) l_buf(c.pad + i, c.pad + j) = l(i, j);
  for (std::size_t j = 0; j < c.n; ++j)
    for (std::size_t i = 0; i < c.m; ++i) x_buf(c.pad + i, c.pad + j) = b0(i, j);
  const auto lv = l_buf.cview().sub(c.pad, c.pad, na, na);
  const auto xv = x_buf.view().sub(c.pad, c.pad, c.m, c.n);
  switch (c.solve) {
    case Solve::Left: trsm_left(lv, xv); break;
    case Solve::LeftTrans: ref::trsm_left_trans<double>(lv, xv); break;
    case Solve::RightTrans: trsm_right_trans<double>(lv, xv); break;
  }
  la::Matrix<double> x(c.m, c.n);
  for (std::size_t j = 0; j < x_buf.cols(); ++j)
    for (std::size_t i = 0; i < x_buf.rows(); ++i) {
      const bool inside =
          i >= c.pad && i < c.pad + c.m && j >= c.pad && j < c.pad + c.n;
      if (inside)
        x(i - c.pad, j - c.pad) = x_buf(i, j);
      else
        EXPECT_TRUE(std::isnan(x_buf(i, j))) << "margin (" << i << "," << j << ") written";
    }

  // Check L X == B (left), L^T X == B (left_trans) or X L^T == B (right).
  const la::Matrix<double> zero(c.m, c.n);
  const la::Matrix<double> recovered =
      (c.solve == Solve::Left)
          ? naive_gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, l, x, 0.0, zero)
      : (c.solve == Solve::LeftTrans)
          ? naive_gemm<double>(Trans::Trans, Trans::NoTrans, 1.0, l, x, 0.0, zero)
          : naive_gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, x, l, 0.0, zero);
  for (std::size_t j = 0; j < c.n; ++j)
    for (std::size_t i = 0; i < c.m; ++i)
      EXPECT_NEAR(recovered(i, j), b0(i, j), 1e-9) << "(" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(
    LowerSolves, TrsmTest,
    ::testing::Values(TrsmCase{9, 6, Solve::Left}, TrsmCase{9, 6, Solve::RightTrans},
                      TrsmCase{9, 6, Solve::LeftTrans},
                      // A few degenerate / rectangular extremes.
                      TrsmCase{1, 8, Solve::Left}, TrsmCase{8, 1, Solve::RightTrans},
                      TrsmCase{24, 24, Solve::RightTrans},
                      // The vector backward solve on a tile-128 diagonal tile.
                      TrsmCase{128, 1, Solve::LeftTrans},
                      // Shapes whose recursion splits onto packed coupling
                      // GEMMs: the tile-128 panel solve and a
                      // 4-right-hand-side forward solve.
                      TrsmCase{128, 128, Solve::RightTrans}, TrsmCase{128, 4, Solve::Left},
                      // Two levels of splits, the second into odd halves.
                      TrsmCase{300, 8, Solve::Left}, TrsmCase{8, 300, Solve::RightTrans},
                      // The split shapes again on strided sub-views.
                      TrsmCase{128, 4, Solve::Left, 3},
                      TrsmCase{128, 128, Solve::RightTrans, 3}),
    [](const auto& info) {
      const TrsmCase& c = info.param;
      const char* solve = (c.solve == Solve::Left)        ? "left_"
                          : (c.solve == Solve::LeftTrans) ? "left_trans_"
                                                          : "right_trans_";
      return solve + std::to_string(c.m) + "x" + std::to_string(c.n) +
             (c.pad != 0 ? "_padded" : "");
    });

TEST(Trsm, RejectsMismatchedShapes) {
  const la::Matrix<double> l4(4, 4, 1.0);
  const la::Matrix<double> l43(4, 3, 1.0);
  la::Matrix<double> b52(5, 2), b42(4, 2), b25(2, 5), b24(2, 4);
  EXPECT_THROW(trsm_left(l4.cview(), b52.view()), InvalidArgument);
  EXPECT_THROW(trsm_left(l43.cview(), b42.view()), InvalidArgument);
  EXPECT_THROW(trsm_right_trans<double>(l4.cview(), b25.view()), InvalidArgument);
  EXPECT_THROW(trsm_right_trans<double>(l43.cview(), b24.view()), InvalidArgument);
  // The matching shapes solve.
  EXPECT_NO_THROW(trsm_left(l4.cview(), b42.view()));
  EXPECT_NO_THROW(trsm_right_trans<double>(l4.cview(), b24.view()));
}

// ---------------------------------------------------- vectorized solves

// la::ref's two lower solves and la::gemv_sub run ISA-dispatched kernels
// (solve_kernel.cpp) that must equal the scalar loops bit for bit at every
// ISA (the GSX_GEMM_ISA reruns in tests/CMakeLists.txt), every width of B
// and every row count: full register blocks, single-vector blocks and
// scalar tail rows. B carries +0 and -0 entries, and its first column and
// first row are -0 throughout: there every update comes from a zero, so
// only the skip keeps the -0 (an unskipped one subtracts L(i,kk) * -0 =
// -0 and leaves +0). L has zero multipliers and holds NaN above its
// diagonal, which no solve may read.

/// memcmp of two equal-shape matrices, reporting the first differing entry.
template <typename T>
::testing::AssertionResult same_bits(const la::Matrix<T>& got, const la::Matrix<T>& want) {
  for (std::size_t j = 0; j < got.cols(); ++j)
    for (std::size_t i = 0; i < got.rows(); ++i)
      if (std::memcmp(&got(i, j), &want(i, j), sizeof(T)) != 0)
        return ::testing::AssertionFailure()
               << "(" << i << "," << j << "): " << got(i, j) << " vs " << want(i, j);
  return ::testing::AssertionSuccess();
}

/// A well-conditioned lower triangle with a few zero multipliers and NaN
/// above the diagonal.
template <typename T>
la::Matrix<T> solve_triangle(std::size_t n, Rng& rng) {
  la::Matrix<T> l(n, n, std::numeric_limits<T>::quiet_NaN());
  for (std::size_t j = 0; j < n; ++j) {
    l(j, j) = static_cast<T>(rng.uniform(1.0, 2.0));
    for (std::size_t i = j + 1; i < n; ++i)
      l(i, j) = static_cast<T>((i + 2 * j) % 7 == 0 ? 0.0 : rng.uniform(-0.5, 0.5) / n);
  }
  return l;
}

/// An m x n right-hand side with +0 and -0 sprinkled in, and -0 all along
/// its first column and first row.
template <typename T>
la::Matrix<T> solve_rhs(std::size_t m, std::size_t n, Rng& rng) {
  la::Matrix<T> b(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t h = (3 * i + 5 * j) % 11;
      const bool neg_zero = i == 0 || j == 0 || h == 1;
      b(i, j) = static_cast<T>(neg_zero ? -0.0 : h == 0 ? 0.0 : rng.uniform(-1.0, 1.0));
    }
  return b;
}

constexpr std::size_t kSolveRows[] = {1, 2, 3, 5, 7, 9, 17, 31, 64, 70, 88, 128, 131, 256};
constexpr std::size_t kSolveCols[] = {1, 2, 3, 4, 5, 8, 12, 13};

TEST(SolveKernel, LeftSolveMatchesScalarSweepBitwise) {
  Rng rng(41);
  for (const std::size_t m : kSolveRows) {
    const la::Matrix<double> l = solve_triangle<double>(m, rng);
    for (const std::size_t n : kSolveCols) {
      const la::Matrix<double> b = solve_rhs<double>(m, n, rng);
      la::Matrix<double> got = b, want = b;
      ref::trsm_left(l.cview(), got.view());
      gsx::test::oracle_trsm_left<double>(l.cview(), want.view());
      ASSERT_TRUE(same_bits(got, want)) << "m=" << m << " n=" << n;
      EXPECT_TRUE(std::signbit(got(m - 1, 0))) << "m=" << m;
    }
  }
}

TEST(SolveKernel, LeftSolveColumnsDoNotDependOnWidth) {
  // Each column of a 13-wide solve equals that column solved alone, on a
  // strided sub-view of B.
  Rng rng(43);
  for (const std::size_t m : {64, 88, 128, 131}) {
    const la::Matrix<double> l = solve_triangle<double>(m, rng);
    const la::Matrix<double> b = solve_rhs<double>(m + 3, 13, rng);
    la::Matrix<double> wide = b;
    ref::trsm_left(l.cview(), wide.view().sub(3, 0, m, 13));
    for (std::size_t j = 0; j < 13; ++j) {
      la::Matrix<double> solo(m, 1), got(m, 1);
      for (std::size_t i = 0; i < m; ++i) {
        solo(i, 0) = b(3 + i, j);
        got(i, 0) = wide(3 + i, j);
      }
      ref::trsm_left(l.cview(), solo.view());
      EXPECT_TRUE(same_bits(got, solo)) << "m=" << m << " column " << j;
    }
  }
}

template <typename T>
void right_solve_matches_scalar_sweep() {
  Rng rng(47);
  for (const std::size_t na : {1, 5, 16, 33, 64}) {
    // Non-negative multipliers: then row 0 of the solution is -0 in
    // column 0 and +0 after it, except in the columns whose multiplier on
    // column 0 is a skipped zero, which keep the -0.
    la::Matrix<T> l = solve_triangle<T>(na, rng);
    for (std::size_t j = 0; j < na; ++j)
      for (std::size_t i = j + 1; i < na; ++i) l(i, j) = std::abs(l(i, j));
    for (const std::size_t m : {1, 3, 44, 64, 128, 131}) {
      const la::Matrix<T> b = solve_rhs<T>(m, na, rng);
      la::Matrix<T> got = b, want = b;
      ref::trsm_right_trans(l.cview(), got.view());
      gsx::test::oracle_trsm_right_trans<T>(l.cview(), want.view());
      ASSERT_TRUE(same_bits(got, want)) << "m=" << m << " na=" << na;
    }
  }
}

TEST(SolveKernel, RightTransSolveMatchesScalarSweepBitwiseF64) {
  right_solve_matches_scalar_sweep<double>();
}
TEST(SolveKernel, RightTransSolveMatchesScalarSweepBitwiseF32) {
  right_solve_matches_scalar_sweep<float>();
}

template <typename TS>
void gemv_sub_matches_gemv() {
  Rng rng(53);
  for (const std::size_t m : {1, 3, 8, 31, 64, 70, 88, 128, 131})
    for (const std::size_t n : {1, 7, 64, 128}) {
      la::Matrix<TS> a(m, n);
      la::Matrix<double> wide(m, n);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < m; ++i) {
          a(i, j) = static_cast<TS>(rng.uniform(-1.0, 1.0));
          wide(i, j) = static_cast<double>(a(i, j));
        }
      // x and y as rows of solve_rhs: zeros sprinkled in, and a second
      // pass with x and y all -0.
      const la::Matrix<double> x = solve_rhs<double>(2, n, rng);
      const la::Matrix<double> y = solve_rhs<double>(2, m, rng);
      for (const std::size_t row : {1, 0}) {
        std::vector<double> xr(n), got(m), want(m);
        for (std::size_t j = 0; j < n; ++j) xr[j] = x(row, j);
        for (std::size_t i = 0; i < m; ++i) got[i] = want[i] = y(row, i);
        gemv_sub(a.cview(), xr.data(), got.data());
        gemv<double>(Trans::NoTrans, -1.0, wide.cview(), xr.data(), 1.0, want.data());
        ASSERT_EQ(std::memcmp(got.data(), want.data(), m * sizeof(double)), 0)
            << "m=" << m << " n=" << n << " row " << row;
      }
    }
}

TEST(SolveKernel, GemvSubMatchesGemvBitwiseF64) { gemv_sub_matches_gemv<double>(); }
TEST(SolveKernel, GemvSubMatchesGemvBitwiseWidenedF32) { gemv_sub_matches_gemv<float>(); }

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
