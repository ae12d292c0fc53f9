// POTRF / QR / SVD / norm tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx::la {
namespace {

using gsx::test::max_abs_diff;
using gsx::test::random_lowrank;
using gsx::test::random_matrix;
using gsx::test::random_spd;
using gsx::test::rel_frobenius_diff;

class PotrfSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PotrfSizes, LowerFactorReconstructs) {
  const std::size_t n = GetParam();
  Rng rng(n);
  const auto a0 = random_spd(n, rng);
  auto a = a0;
  ASSERT_EQ(potrf(a.view()), 0);

  // L L^T == A0 (build L from the lower triangle).
  la::Matrix<double> l(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) l(i, j) = a(i, j);
  la::Matrix<double> rec(n, n);
  gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, l.cview(), l.cview(), 0.0, rec.view());
  EXPECT_LT(rel_frobenius_diff(rec, a0), 1e-12);

  // Strict upper triangle untouched.
  for (std::size_t j = 1; j < n; ++j)
    for (std::size_t i = 0; i < j; ++i) EXPECT_DOUBLE_EQ(a(i, j), a0(i, j));
}

// Sizes straddle the internal blocking (96).
INSTANTIATE_TEST_SUITE_P(Range, PotrfSizes, ::testing::Values(1, 2, 5, 17, 64, 96, 97, 150, 257));

// A strided sub-view (ld > n) across two blocks, NaN around it and in its
// strict upper triangle: potrf reads and writes only the lower triangle.
TEST(Potrf, FactorsLowerTriangleOfStridedView) {
  Rng rng(23);
  const std::size_t n = 150, pad = 2;
  const auto a0 = random_spd(n, rng);
  la::Matrix<double> buf(n + 2 * pad, n + 2 * pad, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) buf(pad + i, pad + j) = a0(i, j);
  ASSERT_EQ(potrf(buf.view().sub(pad, pad, n, n)), 0);

  la::Matrix<double> l(n, n);
  for (std::size_t j = 0; j < buf.cols(); ++j)
    for (std::size_t i = 0; i < buf.rows(); ++i) {
      const bool lower = j >= pad && j < pad + n && i >= j && i < pad + n;
      if (lower)
        l(i - pad, j - pad) = buf(i, j);
      else
        EXPECT_TRUE(std::isnan(buf(i, j))) << "(" << i << "," << j << ") written";
    }
  la::Matrix<double> rec(n, n);
  gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, l.cview(), l.cview(), 0.0, rec.view());
  EXPECT_LT(rel_frobenius_diff(rec, a0), 1e-12);
}

TEST(Potrf, DetectsIndefiniteMatrix) {
  la::Matrix<double> a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;  // indefinite
  a(2, 2) = 1.0;
  const int info = potrf(a.view());
  EXPECT_EQ(info, 2);  // 1-based failing pivot
}

TEST(Potrf, DetectsFailureInLaterBlock) {
  Rng rng(9);
  const std::size_t n = 120;  // failure inside second block (blocking = 96)
  auto a = random_spd(n, rng);
  a(110, 110) = -1e6;
  const int info = potrf(a.view());
  EXPECT_GT(info, 96);
  EXPECT_LE(info, 120);
}

// ------------------------------------------------------------------ QR

struct QrShape {
  std::size_t m, n;
};

class QrTest : public ::testing::TestWithParam<QrShape> {};

TEST_P(QrTest, ThinQrReconstructsAndIsOrthonormal) {
  const auto [m, n] = GetParam();
  Rng rng(m * 100 + n);
  const auto a0 = random_matrix(m, n, rng);
  auto r = a0;
  la::Matrix<double> q;
  qr_factor(r.view(), q);

  ASSERT_EQ(q.rows(), m);
  ASSERT_EQ(q.cols(), n);

  // Q^T Q == I.
  la::Matrix<double> qtq(n, n);
  gemm<double>(Trans::Trans, Trans::NoTrans, 1.0, q.cview(), q.cview(), 0.0, qtq.view());
  EXPECT_LT(max_abs_diff(qtq, la::Matrix<double>::identity(n)), 1e-12);

  // Q R == A.
  la::Matrix<double> rec(m, n);
  gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, q.cview(),
               Span2D<const double>(r.data(), n, n, m), 0.0, rec.view());
  EXPECT_LT(rel_frobenius_diff(rec, a0), 1e-12);

  // R strictly upper-triangular below the diagonal (zeroed).
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < m; ++i) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrTest,
                         ::testing::Values(QrShape{5, 5}, QrShape{9, 4}, QrShape{40, 7},
                                           QrShape{64, 64}, QrShape{100, 3},
                                           QrShape{1, 1}));

TEST(Qr, HandlesRankDeficiency) {
  Rng rng(31);
  auto a = random_lowrank(20, 8, 3, rng);
  const auto a0 = a;
  la::Matrix<double> q;
  qr_factor(a.view(), q);
  la::Matrix<double> rec(20, 8);
  gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, q.cview(),
               Span2D<const double>(a.data(), 8, 8, 20), 0.0, rec.view());
  EXPECT_LT(rel_frobenius_diff(rec, a0), 1e-12);
}

// ------------------------------------------------------------------ SVD

struct SvdShape {
  std::size_t m, n;
};

class SvdTest : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdTest, FactorsReconstructAndAreOrthonormal) {
  const auto [m, n] = GetParam();
  Rng rng(m * 37 + n);
  const auto a = random_matrix(m, n, rng);
  la::Matrix<double> u, v;
  std::vector<double> s;
  svd_jacobi(a, u, s, v);

  const std::size_t r = std::min(m, n);
  ASSERT_EQ(s.size(), r);
  ASSERT_EQ(u.rows(), m);
  ASSERT_EQ(u.cols(), r);
  ASSERT_EQ(v.rows(), n);
  ASSERT_EQ(v.cols(), r);

  // Descending non-negative singular values.
  for (std::size_t i = 0; i < r; ++i) {
    EXPECT_GE(s[i], 0.0);
    if (i > 0) {
      EXPECT_LE(s[i], s[i - 1]);
    }
  }

  // U^T U == I, V^T V == I.
  la::Matrix<double> utu(r, r), vtv(r, r);
  gemm<double>(Trans::Trans, Trans::NoTrans, 1.0, u.cview(), u.cview(), 0.0, utu.view());
  gemm<double>(Trans::Trans, Trans::NoTrans, 1.0, v.cview(), v.cview(), 0.0, vtv.view());
  EXPECT_LT(max_abs_diff(utu, la::Matrix<double>::identity(r)), 1e-11);
  EXPECT_LT(max_abs_diff(vtv, la::Matrix<double>::identity(r)), 1e-11);

  // U S V^T == A.
  la::Matrix<double> us = u;
  for (std::size_t j = 0; j < r; ++j)
    for (std::size_t i = 0; i < m; ++i) us(i, j) *= s[j];
  la::Matrix<double> rec(m, n);
  gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, us.cview(), v.cview(), 0.0, rec.view());
  EXPECT_LT(rel_frobenius_diff(rec, a), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdTest,
                         ::testing::Values(SvdShape{6, 6}, SvdShape{12, 5}, SvdShape{5, 12},
                                           SvdShape{40, 40}, SvdShape{1, 4},
                                           SvdShape{30, 2}));

TEST(Svd, ExactRankRevealed) {
  Rng rng(55);
  const auto a = random_lowrank(24, 18, 5, rng);
  la::Matrix<double> u, v;
  std::vector<double> s;
  svd_jacobi(a, u, s, v);
  for (std::size_t i = 5; i < s.size(); ++i) EXPECT_LT(s[i], 1e-10 * s[0]);
  EXPECT_GT(s[4], 1e-8 * s[0]);
}

TEST(Svd, SingularValuesOfDiagonalMatrix) {
  la::Matrix<double> a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -7.0;  // sign goes into the vectors
  a(2, 2) = 0.5;
  a(3, 3) = 0.0;
  la::Matrix<double> u, v;
  std::vector<double> s;
  svd_jacobi(a, u, s, v);
  EXPECT_NEAR(s[0], 7.0, 1e-12);
  EXPECT_NEAR(s[1], 3.0, 1e-12);
  EXPECT_NEAR(s[2], 0.5, 1e-12);
  EXPECT_NEAR(s[3], 0.0, 1e-12);
}

// ----------------------------------------------------------------- Norms

TEST(Norms, FrobeniusMatchesDefinition) {
  la::Matrix<double> a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(norm_frobenius<double>(a.cview()), 5.0);
}

}  // namespace
}  // namespace gsx::la
