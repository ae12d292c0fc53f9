// Level-3 BLAS over column-major views, templated on the scalar.
//
// These are the sequential task bodies of the tile algorithms: one GEMM /
// SYRK / TRSM / POTRF call per tile task, scheduled by the runtime (the
// paper executes SSL kernels the same way, one sequential kernel per task).
// TRSM comes in the two orientations the tile algorithms call and no
// other, both with a lower-triangular L: B := L^{-1} B (trsm_left: the
// forward solves of the likelihood and kriging, the low-rank panel solve)
// and B := B * L^{-T} (trsm_right_trans: the tile Cholesky's panel solve).
// SYRK keeps its uplo/trans flags: dropping its upper instance from the
// packed kernels recompiles them (see docs/tuning.md).
//
// Two layers:
//   la::ref::  — the reference orders: the original unit-stride loops, kept
//                alive as test oracles and as the small-problem fallback,
//                B := L^{-T} B (trsm_left_trans) for the vector solves, and
//                the two lower solves in the reference order but vectorized
//                per ISA (solve_kernel.cpp): B := L^{-1} B in FP64, whose
//                columns never interact, and B := B * L^{-T}.
//   la::       — the public entry points. FP32/FP64 work that passes the
//                packed GEMM's size rule (use_packed) runs on the packed,
//                register-tiled micro-kernel path (gemm_kernel.hpp):
//                GEMM directly; SYRK as one triangle sweep of that GEMM, so
//                each stored element equals la::gemm's bit for bit; TRSM as
//                a substitution recursion whose coupling updates are packed
//                GEMMs, split only while they pass use_packed, with the
//                reference solve on the blocks below that.
#pragma once

#include <cstddef>
#include <type_traits>

#include "common/error.hpp"
#include "common/span2d.hpp"
#include "la/blas_types.hpp"
#include "la/gemm_kernel.hpp"
#include "obs/flops.hpp"

namespace gsx::la {

namespace detail {

/// Blocking depth in k for the reference GEMM; keeps one panel of A and B in
/// L1/L2.
inline constexpr std::size_t kGemmKBlock = 256;

template <typename T>
void scale_matrix(T beta, Span2D<T> c) {
  if (beta == T{1}) return;
  for (std::size_t j = 0; j < c.cols(); ++j) {
    T* cj = &c(0, j);
    if (beta == T{0}) {
      for (std::size_t i = 0; i < c.rows(); ++i) cj[i] = T{0};
    } else {
      for (std::size_t i = 0; i < c.rows(); ++i) cj[i] *= beta;
    }
  }
}

/// scale_matrix on the `uplo` triangle of the square C only.
template <typename T>
void scale_triangle(Uplo uplo, T beta, Span2D<T> c) {
  if (beta == T{1}) return;
  const std::size_t n = c.rows();
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t ibeg = (uplo == Uplo::Lower) ? j : 0;
    const std::size_t iend = (uplo == Uplo::Lower) ? n : j + 1;
    T* cj = &c(0, j);
    for (std::size_t i = ibeg; i < iend; ++i) cj[i] = (beta == T{0}) ? T{0} : cj[i] * beta;
  }
}

}  // namespace detail

namespace ref {

/// C += alpha * op(A) * op(B); the reference accumulation loops. No
/// per-element zero tests: sparsity is handled structurally by the callers
/// (a rank-0 TLR factor arrives as k == 0 and never reaches these loops).
template <typename T>
void gemm_accum(Trans ta, Trans tb, T alpha, Span2D<const T> a, Span2D<const T> b,
                Span2D<T> c) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = (ta == Trans::NoTrans) ? a.cols() : a.rows();

  for (std::size_t k0 = 0; k0 < k; k0 += detail::kGemmKBlock) {
    const std::size_t kb = std::min(detail::kGemmKBlock, k - k0);
    if (ta == Trans::NoTrans && tb == Trans::NoTrans) {
      // C(:,j) += alpha * A(:,l) * B(l,j): unit-stride axpy in i.
      for (std::size_t j = 0; j < n; ++j) {
        T* cj = &c(0, j);
        for (std::size_t l = 0; l < kb; ++l) {
          const T blj = alpha * b(k0 + l, j);
          const T* al = &a(0, k0 + l);
          for (std::size_t i = 0; i < m; ++i) cj[i] += al[i] * blj;
        }
      }
    } else if (ta == Trans::Trans && tb == Trans::NoTrans) {
      // C(i,j) += alpha * dot(A(:,i), B(:,j)): unit-stride dot in l.
      for (std::size_t j = 0; j < n; ++j) {
        const T* bj = &b(k0, j);
        for (std::size_t i = 0; i < m; ++i) {
          const T* ai = &a(k0, i);
          T s{};
          for (std::size_t l = 0; l < kb; ++l) s += ai[l] * bj[l];
          c(i, j) += alpha * s;
        }
      }
    } else if (ta == Trans::NoTrans && tb == Trans::Trans) {
      // C(:,j) += alpha * A(:,l) * B(j,l).
      for (std::size_t j = 0; j < n; ++j) {
        T* cj = &c(0, j);
        for (std::size_t l = 0; l < kb; ++l) {
          const T blj = alpha * b(j, k0 + l);
          const T* al = &a(0, k0 + l);
          for (std::size_t i = 0; i < m; ++i) cj[i] += al[i] * blj;
        }
      }
    } else {  // Trans, Trans
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < m; ++i) {
          const T* ai = &a(k0, i);
          T s{};
          for (std::size_t l = 0; l < kb; ++l) s += ai[l] * b(j, k0 + l);
          c(i, j) += alpha * s;
        }
      }
    }
  }
}

/// C = alpha * op(A) * op(B) + beta * C; reference oracle.
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, Span2D<const T> a, Span2D<const T> b, T beta,
          Span2D<T> c) {
  detail::scale_matrix(beta, c);
  if (alpha == T{0}) return;
  const std::size_t k = (ta == Trans::NoTrans) ? a.cols() : a.rows();
  if (c.rows() == 0 || c.cols() == 0 || k == 0) return;
  gemm_accum<T>(ta, tb, alpha, a, b, c);
}

/// C = alpha * op(A) * op(A)^T + beta * C on the `uplo` triangle; oracle.
/// Each element accumulates in ref::gemm_accum's order, so the triangle
/// equals ref::gemm(op(A), op(A)^T)'s bit for bit.
template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, Span2D<const T> a, T beta, Span2D<T> c) {
  const std::size_t n = c.rows();
  const std::size_t k = (trans == Trans::NoTrans) ? a.cols() : a.rows();

  detail::scale_triangle(uplo, beta, c);
  if (alpha == T{0} || k == 0) return;

  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t ibeg = (uplo == Uplo::Lower) ? j : 0;
    const std::size_t iend = (uplo == Uplo::Lower) ? n : j + 1;
    T* cj = &c(0, j);
    if (trans == Trans::NoTrans) {
      // C(i,j) += A(i,l) * (alpha * A(j,l)): axpy over i within the triangle.
      for (std::size_t l = 0; l < k; ++l) {
        const T ajl = alpha * a(j, l);
        const T* al = &a(0, l);
        for (std::size_t i = ibeg; i < iend; ++i) cj[i] += al[i] * ajl;
      }
    } else {
      // C(i,j) += alpha * dot(A(:,i), A(:,j)), one dot per k-block.
      for (std::size_t k0 = 0; k0 < k; k0 += detail::kGemmKBlock) {
        const std::size_t kb = std::min(detail::kGemmKBlock, k - k0);
        const T* aj = &a(k0, j);
        for (std::size_t i = ibeg; i < iend; ++i) {
          const T* ai = &a(k0, i);
          T s{};
          for (std::size_t l = 0; l < kb; ++l) s += ai[l] * aj[l];
          cj[i] += alpha * s;
        }
      }
    }
  }
}

/// B := L^{-1} B with L lower triangular, FP64: forward substitution in
/// which a zero entry of the solution skips its update (solve_kernel.cpp:
/// left-looking, register-blocked and compiled per ISA, with the column
/// sweep's operations on every element in its order, so the bits do not
/// depend on B's width or the ISA).
void trsm_left(Span2D<const double> l, Span2D<double> b);

/// B := L^{-T} B with L lower triangular: backward substitution,
/// dot-product form.
template <typename T>
void trsm_left_trans(Span2D<const T> l, Span2D<T> b) {
  const std::size_t m = b.rows();
  for (std::size_t j = 0; j < b.cols(); ++j) {
    T* bj = &b(0, j);
    for (std::size_t ii = m; ii-- > 0;) {
      const T* li = &l(0, ii);
      T s = bj[ii];
      for (std::size_t kk = ii + 1; kk < m; ++kk) s -= li[kk] * bj[kk];
      bj[ii] = s / l(ii, ii);
    }
  }
}

/// B := B * L^{-T} with L lower triangular, left to right; the tile
/// Cholesky's panel solve and la::trsm_right_trans's base blocks. Column j
/// takes -B(:,kk) * L(j,kk) for kk < j (skipped where L(j,kk) is zero),
/// then one scale by 1 / L(j,j): axpys over B's rows, compiled per ISA
/// (solve_kernel.cpp).
void trsm_right_trans(Span2D<const double> l, Span2D<double> b);
void trsm_right_trans(Span2D<const float> l, Span2D<float> b);

}  // namespace ref

namespace detail {

/// Scalars with a packed micro-kernel implementation.
template <typename T>
inline constexpr bool kHasPackedKernel =
    std::is_same_v<T, double> || std::is_same_v<T, float>;

/// C += alpha * op(A) * op(B): packed path when it pays off, reference
/// accumulation otherwise.
template <typename T>
void gemm_accum_fast(Trans ta, Trans tb, T alpha, Span2D<const T> a, Span2D<const T> b,
                     Span2D<T> c) {
  const std::size_t k = (ta == Trans::NoTrans) ? a.cols() : a.rows();
  if constexpr (kHasPackedKernel<T>) {
    if (use_packed(c.rows(), c.cols(), k)) {
      gemm_packed(ta, tb, alpha, a, b, c);
      return;
    }
  }
  ref::gemm_accum<T>(ta, tb, alpha, a, b, c);
}

}  // namespace detail

/// C = alpha * op(A) * op(B) + beta * C.
/// Shapes: op(A) is m x k, op(B) is k x n, C is m x n.
template <typename T>
void gemm(Trans ta, Trans tb, T alpha, Span2D<const T> a, Span2D<const T> b, T beta,
          Span2D<T> c) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = (ta == Trans::NoTrans) ? a.cols() : a.rows();
  GSX_REQUIRE(((ta == Trans::NoTrans) ? a.rows() : a.cols()) == m, "gemm: A shape mismatch");
  GSX_REQUIRE(((tb == Trans::NoTrans) ? b.rows() : b.cols()) == k, "gemm: B inner mismatch");
  GSX_REQUIRE(((tb == Trans::NoTrans) ? b.cols() : b.rows()) == n, "gemm: B outer mismatch");

  detail::scale_matrix(beta, c);
  // k == 0 is the one structural-sparsity check: rank-0 TLR factors
  // contribute nothing. No per-element zero tests anywhere downstream.
  if (alpha == T{0} || m == 0 || n == 0 || k == 0) return;
  detail::gemm_accum_fast<T>(ta, tb, alpha, a, b, c);
}

/// C = alpha * op(A) * op(A)^T + beta * C, touching only the `uplo` triangle.
/// op(A) is n x k; C is n x n. Every stored element equals the same element
/// of la::gemm(trans, flip(trans), alpha, a, a, beta, c) bit for bit: the
/// packed triangle sweep when la::gemm would take the packed path, the
/// reference loops (in ref::gemm's order) when it would not.
template <typename T>
void syrk(Uplo uplo, Trans trans, T alpha, Span2D<const T> a, T beta, Span2D<T> c) {
  const std::size_t n = c.rows();
  GSX_REQUIRE(c.cols() == n, "syrk: C must be square");
  const std::size_t k = (trans == Trans::NoTrans) ? a.cols() : a.rows();
  GSX_REQUIRE(((trans == Trans::NoTrans) ? a.rows() : a.cols()) == n, "syrk: A shape mismatch");

  if constexpr (detail::kHasPackedKernel<T>) {
    if (alpha != T{0} && detail::use_packed(n, n, k)) {
      detail::scale_triangle(uplo, beta, c);
      detail::syrk_packed(uplo, trans, alpha, a, c);
      return;
    }
  }
  ref::syrk<T>(uplo, trans, alpha, a, beta, c);
}

namespace detail {

// In-place blocked triangular solves. Each halves L recursively: the two
// diagonal sub-solves recurse, the coupling update is a GEMM on the packed
// path. A split is made only while that coupling GEMM passes use_packed,
// so the recursion stops where the packed GEMM itself would, and the
// reference-order solve finishes the block.

/// B := L^{-1} B; the coupling GEMM is (na-h) x n x h.
inline void trsm_left_blocked(Span2D<const double> l, Span2D<double> b) {
  const std::size_t na = l.rows();
  const std::size_t n = b.cols();
  const std::size_t h = na / 2;
  if (!use_packed(na - h, n, h)) {
    ref::trsm_left(l, b);
    return;
  }
  // [L11 0; L21 L22] [X1; X2] = [B1; B2]
  auto b1 = b.sub(0, 0, h, n);
  auto b2 = b.sub(h, 0, na - h, n);
  trsm_left_blocked(l.sub(0, 0, h, h), b1);
  gemm_accum_fast<double>(Trans::NoTrans, Trans::NoTrans, -1.0, l.sub(h, 0, na - h, h), b1,
                          b2);
  trsm_left_blocked(l.sub(h, h, na - h, na - h), b2);
}

/// B := B * L^{-T} (FP64 or FP32); the coupling GEMM is m x (na-h) x h.
template <typename T>
void trsm_right_trans_blocked(Span2D<const T> l, Span2D<T> b) {
  const std::size_t na = l.rows();
  const std::size_t m = b.rows();
  const std::size_t h = na / 2;
  if (!use_packed(m, na - h, h)) {
    ref::trsm_right_trans(l, b);
    return;
  }
  // [X1 X2] [L11^T L21^T; 0 L22^T] = [B1 B2]
  auto b1 = b.sub(0, 0, m, h);
  auto b2 = b.sub(0, h, m, na - h);
  trsm_right_trans_blocked<T>(l.sub(0, 0, h, h), b1);
  gemm_accum_fast<T>(Trans::NoTrans, Trans::Trans, T{-1}, b1, l.sub(h, 0, na - h, h), b2);
  trsm_right_trans_blocked<T>(l.sub(h, h, na - h, na - h), b2);
}

}  // namespace detail

/// B := L^{-1} B with L (m x m) lower triangular; B is m x n, FP64. The
/// TLR panel solve: split while the coupling GEMM passes use_packed, so the
/// bits depend on n. A solve whose columns must not depend on each other
/// calls ref::trsm_left.
inline void trsm_left(Span2D<const double> l, Span2D<double> b) {
  GSX_REQUIRE(l.rows() == b.rows() && l.cols() == b.rows(), "trsm_left: L shape mismatch");
  if (b.rows() == 0 || b.cols() == 0) return;
  detail::trsm_left_blocked(l, b);
}

/// B := B * L^{-T} with L (n x n) lower triangular; B is m x n (FP64 or
/// FP32).
template <typename T>
void trsm_right_trans(Span2D<const T> l, Span2D<T> b) {
  GSX_REQUIRE(l.rows() == b.cols() && l.cols() == b.cols(),
              "trsm_right_trans: L shape mismatch");
  if (b.rows() == 0 || b.cols() == 0) return;
  detail::trsm_right_trans_blocked<T>(l, b);
}

// ---------------------------------------------------------------------------
// Batched entry points.
//
// The tile algorithms issue thousands of same-shape small ops (one trailing
// update per tile pair, one panel-solve apply per block row); launching them
// one at a time re-packs the shared operand and re-pays the call overhead
// every time. The *_batch entry points take an array of same-shape ops and
// run them through one blocked sweep: the packed op(B) panel is re-used
// across consecutive ops that share B (the TLR trailing updates off one
// panel tile, the solve applies against one RHS block). Results are
// bit-identical to looping the per-op entry points over the items — the
// packed-vs-reference decision and every per-item accumulation order are
// unchanged — so callers can batch opportunistically without revalidating
// numerics. Batch submissions are recorded in the obs ledger's
// "la.batch.<op>.<precision>" histograms.

namespace detail {

/// Batched analog of gemm_accum_fast: same use_packed decision (uniform
/// shapes mean one decision for the whole batch), reference loop fallback.
template <typename T>
void gemm_accum_fast_batch(Trans ta, Trans tb, T alpha, const GemmBatchItem<T>* items,
                           std::size_t count) {
  const std::size_t k =
      (ta == Trans::NoTrans) ? items[0].a.cols() : items[0].a.rows();
  if constexpr (kHasPackedKernel<T>) {
    if (use_packed(items[0].c.rows(), items[0].c.cols(), k)) {
      gemm_batch_packed(ta, tb, alpha, items, count);
      return;
    }
  }
  for (std::size_t i = 0; i < count; ++i)
    ref::gemm_accum<T>(ta, tb, alpha, items[i].a, items[i].b, items[i].c);
}

}  // namespace detail

/// Batched GEMM: items[i].c = alpha * op(items[i].a) * op(items[i].b)
/// + beta * items[i].c. Every item must have the same (m, n, k).
template <typename T>
void gemm_batch(Trans ta, Trans tb, T alpha, const GemmBatchItem<T>* items,
                std::size_t count, T beta) {
  if (count == 0) return;
  const std::size_t m = items[0].c.rows();
  const std::size_t n = items[0].c.cols();
  const std::size_t k = (ta == Trans::NoTrans) ? items[0].a.cols() : items[0].a.rows();
  for (std::size_t i = 0; i < count; ++i) {
    const auto& it = items[i];
    GSX_REQUIRE(it.c.rows() == m && it.c.cols() == n, "gemm_batch: C shape mismatch");
    GSX_REQUIRE(((ta == Trans::NoTrans) ? it.a.rows() : it.a.cols()) == m &&
                    ((ta == Trans::NoTrans) ? it.a.cols() : it.a.rows()) == k,
                "gemm_batch: A shape mismatch");
    GSX_REQUIRE(((tb == Trans::NoTrans) ? it.b.rows() : it.b.cols()) == k &&
                    ((tb == Trans::NoTrans) ? it.b.cols() : it.b.rows()) == n,
                "gemm_batch: B shape mismatch");
  }
  for (std::size_t i = 0; i < count; ++i) detail::scale_matrix(beta, items[i].c);
  if (alpha == T{0} || m == 0 || n == 0 || k == 0) return;
  obs::record_batch(obs::KernelOp::Gemm, precision_of<T>, count);
  detail::gemm_accum_fast_batch<T>(ta, tb, alpha, items, count);
}

/// y = alpha * op(A) x + beta * y.
template <typename T>
void gemv(Trans ta, T alpha, Span2D<const T> a, const T* x, T beta, T* y) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t leny = (ta == Trans::NoTrans) ? m : n;
  for (std::size_t i = 0; i < leny; ++i) y[i] = (beta == T{0}) ? T{0} : y[i] * beta;
  if (ta == Trans::NoTrans) {
    for (std::size_t j = 0; j < n; ++j) {
      const T xj = alpha * x[j];
      if (xj == T{0}) continue;
      const T* aj = &a(0, j);
      for (std::size_t i = 0; i < m; ++i) y[i] += aj[i] * xj;
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      const T* aj = &a(0, j);
      T s{};
      for (std::size_t i = 0; i < m; ++i) s += aj[i] * x[i];
      y[j] += alpha * s;
    }
  }
}

/// y := y - A x for an m x n A stored as FP64 or FP32 (widened exactly
/// element by element): the bits of gemv(NoTrans, -1, A, x, 1, y) on the
/// FP64 A, x_j == 0 skipped the same way, compiled per ISA
/// (solve_kernel.cpp). x has n entries, y m.
void gemv_sub(Span2D<const double> a, const double* x, double* y);
void gemv_sub(Span2D<const float> a, const double* x, double* y);

}  // namespace gsx::la
