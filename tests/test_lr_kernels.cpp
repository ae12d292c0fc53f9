// Low-rank kernel algebra against dense oracles.
#include <gtest/gtest.h>

#include "la/lapack.hpp"
#include "test_utils.hpp"
#include "tlr/compression.hpp"
#include "tlr/lr_kernels.hpp"

namespace gsx::tlr {
namespace {

using gsx::test::max_abs_diff;
using gsx::test::random_matrix;
using gsx::test::rel_frobenius_diff;

struct LrFixture {
  la::Matrix<double> u, v;       // the LR tile
  la::Matrix<double> dense;      // its dense value

  LrFixture(std::size_t m, std::size_t n, std::size_t k, Rng& rng)
      : u(random_matrix(m, k, rng)), v(random_matrix(n, k, rng)), dense(m, n) {
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                     dense.view());
  }
  [[nodiscard]] LrView view() const { return LrView{u.cview(), v.cview()}; }
};

TEST(LrTrsm, MatchesDenseTrsm) {
  Rng rng(1);
  const std::size_t n = 12, k = 4;
  // SPD -> L.
  auto spd = gsx::test::random_spd(n, rng);
  ASSERT_EQ(la::potrf(spd.view()), 0);

  LrFixture b(n, n, k, rng);
  // Dense oracle: B L^{-T}.
  la::Matrix<double> oracle = b.dense;
  auto ov = oracle.view();
  la::trsm_right_trans<double>(spd.cview(), ov);

  la::Matrix<double> v2 = b.v;
  lr_trsm_right_lower_trans(spd.cview(), v2);
  la::Matrix<double> rec(n, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, b.u.cview(), v2.cview(), 0.0,
                   rec.view());
  EXPECT_LT(rel_frobenius_diff(rec, oracle), 1e-12);
}

TEST(LrGemm, LrLrIntoDense) {
  Rng rng(2);
  const std::size_t m = 14, n = 11, p = 9;
  LrFixture a(m, p, 3, rng), b(n, p, 5, rng);
  auto c = random_matrix(m, n, rng);
  la::Matrix<double> oracle = c;
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.dense.cview(),
                   b.dense.cview(), 1.0, oracle.view());
  gemm_lr_lr_dense(-1.0, a.view(), b.view(), c.view());
  EXPECT_LT(max_abs_diff(c, oracle), 1e-11);
}

TEST(LrGemm, LrDenseIntoDense) {
  Rng rng(3);
  const std::size_t m = 10, n = 13, p = 8;
  LrFixture a(m, p, 4, rng);
  const auto b = random_matrix(n, p, rng);
  auto c = random_matrix(m, n, rng);
  la::Matrix<double> oracle = c;
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.dense.cview(), b.cview(),
                   1.0, oracle.view());
  gemm_lr_dense_dense(-1.0, a.view(), b.cview(), c.view());
  EXPECT_LT(max_abs_diff(c, oracle), 1e-11);
}

TEST(LrGemm, DenseLrIntoDense) {
  Rng rng(4);
  const std::size_t m = 9, n = 15, p = 7;
  const auto a = random_matrix(m, p, rng);
  LrFixture b(n, p, 2, rng);
  auto c = random_matrix(m, n, rng);
  la::Matrix<double> oracle = c;
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.cview(), b.dense.cview(),
                   1.0, oracle.view());
  gemm_dense_lr_dense(-1.0, a.cview(), b.view(), c.view());
  EXPECT_LT(max_abs_diff(c, oracle), 1e-11);
}

TEST(LrSyrk, MatchesDenseSyrkOnFullTile) {
  Rng rng(5);
  const std::size_t n = 12, p = 10, k = 4;
  LrFixture a(n, p, k, rng);
  auto c = gsx::test::random_spd(n, rng);
  la::Matrix<double> oracle = c;
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.dense.cview(),
                   a.dense.cview(), 1.0, oracle.view());
  syrk_lr_dense(-1.0, a.view(), c.view());
  EXPECT_LT(max_abs_diff(c, oracle), 1e-10);
}

struct RankPair {
  std::size_t ka, kb;
};

class LrProductTest : public ::testing::TestWithParam<RankPair> {};

TEST_P(LrProductTest, LrLrProductHasMinRank) {
  const auto [ka, kb] = GetParam();
  Rng rng(ka * 10 + kb);
  const std::size_t m = 16, n = 12, p = 14;
  LrFixture a(m, p, ka, rng), b(n, p, kb, rng);
  const LrProduct prod = product_lr_lr(a.view(), b.view());
  EXPECT_EQ(prod.u.cols(), std::min(ka, kb));

  la::Matrix<double> rec(m, n);
  if (prod.u.cols() > 0)
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, prod.u.cview(),
                     prod.v.cview(), 0.0, rec.view());
  la::Matrix<double> oracle(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, a.dense.cview(),
                   b.dense.cview(), 0.0, oracle.view());
  EXPECT_LT(rel_frobenius_diff(rec, oracle), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Ranks, LrProductTest,
                         ::testing::Values(RankPair{3, 5}, RankPair{5, 3}, RankPair{4, 4},
                                           RankPair{1, 7}));

TEST(LrProduct, LrDenseKeepsLeftRank) {
  Rng rng(7);
  LrFixture a(10, 8, 3, rng);
  const auto b = random_matrix(12, 8, rng);
  const LrProduct p = product_lr_dense(a.view(), b.cview());
  EXPECT_EQ(p.u.cols(), 3u);
  la::Matrix<double> rec(10, 12), oracle(10, 12);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, p.u.cview(), p.v.cview(), 0.0,
                   rec.view());
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, a.dense.cview(), b.cview(),
                   0.0, oracle.view());
  EXPECT_LT(rel_frobenius_diff(rec, oracle), 1e-12);
}

TEST(LrProduct, DenseLrKeepsRightRank) {
  Rng rng(8);
  const auto a = random_matrix(9, 6, rng);
  LrFixture b(11, 6, 2, rng);
  const LrProduct p = product_dense_lr(a.cview(), b.view());
  EXPECT_EQ(p.u.cols(), 2u);
  la::Matrix<double> rec(9, 11), oracle(9, 11);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, p.u.cview(), p.v.cview(), 0.0,
                   rec.view());
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, a.cview(), b.dense.cview(),
                   0.0, oracle.view());
  EXPECT_LT(rel_frobenius_diff(rec, oracle), 1e-12);
}

TEST(LrProduct, DenseDenseCompressesToTolerance) {
  Rng rng(9);
  // Product of two blocks sharing a small inner dimension: truly low-rank.
  const auto a = random_matrix(15, 3, rng);
  const auto b = random_matrix(13, 3, rng);
  const LrProduct p = product_dense_dense(a.cview(), b.cview(), 1e-10);
  EXPECT_LE(p.u.cols(), 3u);
  la::Matrix<double> rec(15, 13), oracle(15, 13);
  if (p.u.cols() > 0)
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, p.u.cview(), p.v.cview(),
                     0.0, rec.view());
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, a.cview(), b.cview(), 0.0,
                   oracle.view());
  EXPECT_LT(rel_frobenius_diff(rec, oracle), 1e-9);
}

TEST(LrAxpy, AccumulatesWithRounding) {
  Rng rng(10);
  const std::size_t m = 18, n = 14;
  LrFixture c(m, n, 4, rng);
  LrFixture p(m, n, 3, rng);

  la::Matrix<double> oracle(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i)
      oracle(i, j) = c.dense(i, j) - 2.0 * p.dense(i, j);

  la::Matrix<double> uc = c.u, vc = c.v;
  lr_axpy_rounded(-2.0, LrProduct{p.u, p.v}, uc, vc, 1e-9);

  la::Matrix<double> rec(m, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, uc.cview(), vc.cview(), 0.0,
                   rec.view());
  EXPECT_LT(max_abs_diff(rec, oracle), 1e-8);
  EXPECT_LE(uc.cols(), 7u);  // at most k_c + k_p
}

TEST(LrAxpy, CancellationReducesRank) {
  Rng rng(11);
  LrFixture c(16, 16, 5, rng);
  // Subtracting the tile from itself must collapse to (near) rank zero.
  la::Matrix<double> uc = c.u, vc = c.v;
  lr_axpy_rounded(-1.0, LrProduct{c.u, c.v}, uc, vc, 1e-10);
  EXPECT_LE(uc.cols(), 1u);
  la::Matrix<double> rec(16, 16);
  if (uc.cols() > 0)
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, uc.cview(), vc.cview(), 0.0,
                     rec.view());
  EXPECT_LT(la::norm_frobenius<double>(rec.cview()), 1e-9);
}

TEST(LrGemv, BothDirectionsMatchDense) {
  Rng rng(12);
  LrFixture a(10, 8, 3, rng);
  std::vector<double> x(8), y(10, 0.25), x2(10), y2(8, -0.5);
  for (auto& v : x) v = rng.normal();
  for (auto& v : x2) v = rng.normal();

  auto y_oracle = y;
  la::gemv<double>(la::Trans::NoTrans, -1.0, a.dense.cview(), x.data(), 1.0,
                   y_oracle.data());
  lr_gemv(-1.0, a.view(), x.data(), y.data());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(y[i], y_oracle[i], 1e-12);

  auto y2_oracle = y2;
  la::gemv<double>(la::Trans::Trans, 2.0, a.dense.cview(), x2.data(), 1.0,
                   y2_oracle.data());
  lr_gemv_trans(2.0, a.view(), x2.data(), y2.data());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(y2[i], y2_oracle[i], 1e-12);
}

}  // namespace
}  // namespace gsx::tlr
