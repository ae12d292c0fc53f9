// Oracle tests for the packed micro-kernel BLAS path: la::gemm / la::syrk /
// la::trsm_left / la::trsm_right_trans (blocked, register-tiled) against
// the la::ref reference loops, across shapes that exercise every edge case
// of the packing (micro-tile remainders, KC/MC/NC block remainders, strided
// sub-views) and the trans / uplo option space of GEMM and SYRK.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/convert.hpp"
#include "la/half_blas.hpp"
#include "la/matrix.hpp"
#include "test_utils.hpp"

namespace gsx {
namespace {

using la::Matrix;
using la::Trans;
using la::Uplo;

// Shapes that hit: single micro-tile, sub-micro-tile tails, exact multiples
// of the register tile, and sizes straddling the KC=256 k-blocking.
constexpr std::size_t kShapes[] = {1, 3, 7, 17, 64, 100, 255};

template <typename T>
Matrix<T> uniform_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix<T> m(rows, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i)
      m(i, j) = static_cast<T>(rng.uniform(-1.0, 1.0));
  return m;
}

template <typename T>
void expect_close(const Matrix<T>& got, const Matrix<T>& want, double tol,
                  const char* what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  double max_diff = 0.0;
  for (std::size_t j = 0; j < got.cols(); ++j)
    for (std::size_t i = 0; i < got.rows(); ++i)
      max_diff = std::max(max_diff,
                          std::abs(static_cast<double>(got(i, j)) -
                                   static_cast<double>(want(i, j))));
  EXPECT_LE(max_diff, tol) << what << ": rows=" << got.rows() << " cols=" << got.cols();
}

// With inputs in [-1, 1] and |alpha| <= 1 each output element is a length-k
// inner product of O(1) terms, so elementwise error is bounded by
// 4 * eps * k (the ISSUE acceptance bound) plus one rounding of the beta*C
// term.
template <typename T>
double gemm_tol(std::size_t k) {
  return 4.0 * std::numeric_limits<T>::epsilon() * static_cast<double>(k + 1);
}

template <typename T>
void run_gemm_oracle_sweep() {
  Rng rng(1234);
  int combo = 0;
  const T alphas[] = {T{0}, T{1}, T{-0.5}};
  const T betas[] = {T{1}, T{-0.5}, T{0}};
  for (std::size_t m : kShapes) {
    for (std::size_t n : kShapes) {
      for (std::size_t k : kShapes) {
        // Rotate through trans and alpha/beta combinations so the full
        // option space is covered across the shape sweep without a 4x9
        // blowup per shape.
        const Trans ta = (combo & 1) ? Trans::Trans : Trans::NoTrans;
        const Trans tb = (combo & 2) ? Trans::Trans : Trans::NoTrans;
        const T alpha = alphas[combo % 3];
        const T beta = betas[(combo / 3) % 3];
        ++combo;

        const Matrix<T> a = uniform_matrix<T>(ta == Trans::NoTrans ? m : k,
                                              ta == Trans::NoTrans ? k : m, rng);
        const Matrix<T> b = uniform_matrix<T>(tb == Trans::NoTrans ? k : n,
                                              tb == Trans::NoTrans ? n : k, rng);
        Matrix<T> c_fast = uniform_matrix<T>(m, n, rng);
        Matrix<T> c_ref = c_fast;

        la::gemm<T>(ta, tb, alpha, a.cview(), b.cview(), beta, c_fast.view());
        la::ref::gemm<T>(ta, tb, alpha, a.cview(), b.cview(), beta, c_ref.view());
        expect_close(c_fast, c_ref, gemm_tol<T>(k), "gemm");
      }
    }
  }
}

TEST(BlasMicrokernel, DispatchIsWithinIsaCap) {
  EXPECT_TRUE(test::gemm_isa_within_cap()) << "dispatch picked " << la::gemm_kernel_isa();
}

TEST(BlasMicrokernel, GemmMatchesOracleF64) { run_gemm_oracle_sweep<double>(); }
TEST(BlasMicrokernel, GemmMatchesOracleF32) { run_gemm_oracle_sweep<float>(); }

// Packing must honor the leading dimension: operands and output are interior
// sub-views of larger arrays (ld > rows), including the transposed reads.
template <typename T>
void run_gemm_strided() {
  Rng rng(77);
  const std::size_t m = 100, n = 117, k = 129;
  const Matrix<T> abuf = uniform_matrix<T>(m + 13, k + 5, rng);
  const Matrix<T> bbuf = uniform_matrix<T>(n + 7, k + 9, rng);
  Matrix<T> cbuf = uniform_matrix<T>(m + 21, n + 3, rng);
  Matrix<T> cbuf_ref = cbuf;

  const Span2D<const T> a = abuf.cview().sub(5, 2, m, k);
  const Span2D<const T> b = bbuf.cview().sub(3, 4, n, k);  // used transposed
  la::gemm<T>(Trans::NoTrans, Trans::Trans, T{-0.5}, a, b, T{1},
              cbuf.view().sub(11, 1, m, n));
  la::ref::gemm<T>(Trans::NoTrans, Trans::Trans, T{-0.5}, a, b, T{1},
                   cbuf_ref.view().sub(11, 1, m, n));
  // The surrounding buffer must be untouched, so compare whole backing
  // matrices, not just the window.
  expect_close(cbuf, cbuf_ref, gemm_tol<T>(k), "strided gemm");
}

TEST(BlasMicrokernel, GemmStridedViewsF64) { run_gemm_strided<double>(); }
TEST(BlasMicrokernel, GemmStridedViewsF32) { run_gemm_strided<float>(); }

// k == 0 (rank-0 TLR factor) must still apply the beta scaling and nothing
// else; beta == 0 must overwrite even a poisoned C.
TEST(BlasMicrokernel, GemmDegenerateK) {
  Rng rng(5);
  const std::size_t m = 33, n = 21;
  const Matrix<double> a(m, 0), b(n, 0);
  Matrix<double> c = test::random_matrix(m, n, rng);
  const Matrix<double> c0 = c;
  la::gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, a.cview(), b.cview(), -0.5, c.view());
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i) EXPECT_DOUBLE_EQ(c(i, j), -0.5 * c0(i, j));

  Matrix<double> poisoned(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < m; ++i)
      poisoned(i, j) = std::numeric_limits<double>::quiet_NaN();
  const Matrix<double> ak = test::random_matrix(m, 40, rng);
  const Matrix<double> bk = test::random_matrix(n, 40, rng);
  Matrix<double> want(m, n);
  la::ref::gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, ak.cview(), bk.cview(), 0.0,
                        want.view());
  la::gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, ak.cview(), bk.cview(), 0.0,
                   poisoned.view());
  expect_close(poisoned, want, gemm_tol<double>(40), "beta=0 gemm");
}

template <typename T>
void run_syrk_oracle_sweep() {
  Rng rng(4321);
  int combo = 0;
  for (std::size_t n : {std::size_t{7}, std::size_t{17}, std::size_t{64},
                        std::size_t{100}, std::size_t{255}}) {
    for (std::size_t k : {std::size_t{3}, std::size_t{64}, std::size_t{255}}) {
      for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
        for (Trans trans : {Trans::NoTrans, Trans::Trans}) {
          const T alpha = (combo % 3 == 0) ? T{1} : ((combo % 3 == 1) ? T{-0.5} : T{0});
          const T beta = (combo % 2 == 0) ? T{1} : T{-0.5};
          ++combo;
          const Matrix<T> a = uniform_matrix<T>(trans == Trans::NoTrans ? n : k,
                                                trans == Trans::NoTrans ? k : n, rng);
          Matrix<T> c_fast = uniform_matrix<T>(n, n, rng);
          Matrix<T> c_ref = c_fast;
          la::syrk<T>(uplo, trans, alpha, a.cview(), beta, c_fast.view());
          la::ref::syrk<T>(uplo, trans, alpha, a.cview(), beta, c_ref.view());
          // ref::syrk writes only the addressed triangle, so this whole-matrix
          // compare doubles as the untouched-opposite-triangle check.
          expect_close(c_fast, c_ref, gemm_tol<T>(k), "syrk");
        }
      }
    }
  }
}

TEST(BlasMicrokernel, SyrkMatchesOracleF64) { run_syrk_oracle_sweep<double>(); }
TEST(BlasMicrokernel, SyrkMatchesOracleF32) { run_syrk_oracle_sweep<float>(); }

template <typename T>
auto bits_of(T v) {
  using U = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
  return std::bit_cast<U>(v);
}

// la::syrk is the `uplo` triangle of la::gemm(op(A), op(A)^T) bit for bit,
// on the packed sweep and on the reference loops alike, and stores nothing
// else. Orders cross MR, NR and both MC values; depths cross KC = 256. A
// and C are interior sub-views of larger buffers. Everything of C's buffer
// outside the triangle is poisoned and must keep its bits, once with a NaN
// with a payload, which must not leak into the triangle, and once with a
// finite sentinel, which a stray accumulation changes (a NaN absorbs it).
template <typename T>
void run_syrk_gemm_bitwise() {
  Rng rng(8128);
  const T poisons[] = {std::bit_cast<T>(static_cast<decltype(bits_of(T{}))>(
                           sizeof(T) == 8 ? 0x7ff80000005a5a5aull : 0x7fc05a5au)),
                       T{-777.25}};
  const T alphas[] = {T{-1}, T{-0.5}, T{0}};
  const T betas[] = {T{1}, T{-0.5}, T{0}};
  int combo = 0;
  for (std::size_t n : {1, 5, 31, 33, 64, 100, 128, 257, 300}) {
    for (std::size_t k : {1, 3, 64, 300}) {
      for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
        for (Trans trans : {Trans::NoTrans, Trans::Trans}) {
          // Rotate through the nine (alpha, beta) pairs across the sweep.
          const T alpha = alphas[combo % 3];
          const T beta = betas[(combo / 3) % 3];
          ++combo;
          const Trans tb = (trans == Trans::NoTrans) ? Trans::Trans : Trans::NoTrans;
          const std::size_t ar = (trans == Trans::NoTrans) ? n : k;
          const std::size_t ac = (trans == Trans::NoTrans) ? k : n;
          const Matrix<T> abuf = uniform_matrix<T>(ar + 4, ac + 3, rng);
          const Span2D<const T> a = abuf.cview().sub(1, 2, ar, ac);

          const Matrix<T> c0 = uniform_matrix<T>(n + 3, n + 2, rng);
          Matrix<T> c_gemm = c0;
          la::gemm<T>(trans, tb, alpha, a, a, beta, c_gemm.view().sub(2, 1, n, n));
          const auto in_triangle = [&](std::size_t i, std::size_t j) {
            if (i < 2 || j < 1 || i >= n + 2 || j >= n + 1) return false;
            return (uplo == Uplo::Lower) ? (i - 2 >= j - 1) : (i - 2 <= j - 1);
          };
          for (const T poison : poisons) {
            Matrix<T> c_syrk = c0;
            for (std::size_t j = 0; j < n + 2; ++j)
              for (std::size_t i = 0; i < n + 3; ++i)
                if (!in_triangle(i, j)) c_syrk(i, j) = poison;
            la::syrk<T>(uplo, trans, alpha, a, beta, c_syrk.view().sub(2, 1, n, n));

            std::size_t mismatches = 0;
            for (std::size_t j = 0; j < n + 2; ++j)
              for (std::size_t i = 0; i < n + 3; ++i)
                mismatches += bits_of(c_syrk(i, j)) !=
                              bits_of(in_triangle(i, j) ? c_gemm(i, j) : poison);
            EXPECT_EQ(mismatches, 0u)
                << "n=" << n << " k=" << k << " uplo=" << static_cast<int>(uplo)
                << " trans=" << static_cast<int>(trans) << " alpha=" << alpha
                << " beta=" << beta << " poison=" << poison;
          }
        }
      }
    }
  }
}

TEST(BlasMicrokernel, SyrkEqualsGemmTriangleBitwiseF64) { run_syrk_gemm_bitwise<double>(); }
TEST(BlasMicrokernel, SyrkEqualsGemmTriangleBitwiseF32) { run_syrk_gemm_bitwise<float>(); }

// Well-conditioned lower triangle: off-diagonals shrunk to O(1/n), so the
// blocked and reference forward errors are comparable within a few ulps.
// The solves read only the lower triangle.
template <typename T>
Matrix<T> dominant_triangle(std::size_t n, Rng& rng) {
  Matrix<T> a(n, n);
  const double scale = 0.5 / static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      a(i, j) = static_cast<T>(scale * rng.uniform(-1.0, 1.0));
  for (std::size_t i = 0; i < n; ++i) a(i, i) = static_cast<T>(rng.uniform(1.0, 2.0));
  return a;
}

// B shapes (m x n) per solve: the tile pipeline's panel solves
// B := B * L^{-T} (tile 128, tile 64, a ragged 44-row panel under a 64
// tile), its forward solves B := L^{-1} B with 1-8 right-hand sides, and one
// odd shape each that splits unevenly. The forward solve is FP64 only.
struct TrsmShape {
  bool left;
  std::size_t m, n;
};
constexpr TrsmShape kTrsmShapes[] = {
    {false, 128, 128}, {false, 64, 64}, {false, 44, 64}, {false, 213, 100},
    {true, 128, 1},    {true, 128, 2},  {true, 128, 4},  {true, 128, 8},
    {true, 64, 4},     {true, 213, 100}};

template <typename T>
void run_trsm_oracle_sweep() {
  Rng rng(99);
  for (const TrsmShape& s : kTrsmShapes) {
    if (s.left && !std::is_same_v<T, double>) continue;
    const std::size_t na = s.left ? s.m : s.n;
    const Matrix<T> l = dominant_triangle<T>(na, rng);
    Matrix<T> b_fast = uniform_matrix<T>(s.m, s.n, rng);
    Matrix<T> b_ref = b_fast;
    if constexpr (std::is_same_v<T, double>) {
      if (s.left) {
        la::trsm_left(l.cview(), b_fast.view());
        la::ref::trsm_left(l.cview(), b_ref.view());
      }
    }
    if (!s.left) {
      la::trsm_right_trans<T>(l.cview(), b_fast.view());
      la::ref::trsm_right_trans(l.cview(), b_ref.view());
    }
    // The diagonally dominant triangle keeps the recursive and reference
    // substitution orders within a few ulps of each other.
    expect_close(b_fast, b_ref, 64.0 * std::numeric_limits<T>::epsilon() * na, "trsm");
  }
}

TEST(BlasMicrokernel, TrsmMatchesOracleF64) { run_trsm_oracle_sweep<double>(); }
TEST(BlasMicrokernel, TrsmMatchesOracleF32) { run_trsm_oracle_sweep<float>(); }

// The widening SHGEMM/SBGEMM path packs 16-bit operands straight into FP32
// micro-panels; the oracle converts up front and runs the FP32 reference.
template <typename T16>
void run_widening_oracle(float tol_scale) {
  Rng rng(2025);
  for (auto [m, n, k] : {std::array<std::size_t, 3>{100, 255, 64},
                         {17, 33, 255},
                         {255, 100, 100}}) {
    const Matrix<T16> a = uniform_matrix<T16>(m, k, rng);
    const Matrix<T16> b = uniform_matrix<T16>(n, k, rng);
    Matrix<float> c_fast = uniform_matrix<float>(m, n, rng);
    Matrix<float> c_ref = c_fast;

    Matrix<float> a32(m, k), b32(n, k);
    la::convert(a.cview(), a32.view());
    la::convert(b.cview(), b32.view());

    if constexpr (std::is_same_v<T16, half>) {
      la::shgemm(Trans::NoTrans, Trans::Trans, -0.5f, a.cview(), b.cview(), 1.0f,
                 c_fast.view());
    } else {
      la::sbgemm(Trans::NoTrans, Trans::Trans, -0.5f, a.cview(), b.cview(), 1.0f,
                 c_fast.view());
    }
    la::ref::gemm<float>(Trans::NoTrans, Trans::Trans, -0.5f, a32.cview(), b32.cview(),
                         1.0f, c_ref.view());
    expect_close(c_fast, c_ref, tol_scale * gemm_tol<float>(k), "widening gemm");
  }
}

TEST(BlasMicrokernel, ShgemmMatchesWidenedOracle) { run_widening_oracle<half>(1.0f); }
TEST(BlasMicrokernel, SbgemmMatchesWidenedOracle) { run_widening_oracle<bfloat16>(1.0f); }

}  // namespace
}  // namespace gsx
