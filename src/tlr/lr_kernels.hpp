// Low-rank tile kernels for the TLR Cholesky (HiCMA-style algebra).
//
// Off-diagonal tiles are A = U V^T. The factorization needs:
//   TRSM  : (U V^T) L^{-T}        = U (L^{-1} V)^T          — touches V only
//   SYRK  : C -= (U V^T)(U V^T)^T = C - U (V^T V) U^T       — small core
//   GEMM  : C -= A_ik A_jk^T for every dense/LR combination of the three
//           tiles, with LR x LR products of rank min(k_ik, k_jk) followed by
//           QR-based rounding when accumulating into an LR tile.
#pragma once

#include "common/span2d.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "tlr/compression.hpp"

namespace gsx::tlr {

/// Non-owning view of a low-rank factorization A = U V^T.
struct LrView {
  Span2D<const double> u;  ///< m x k
  Span2D<const double> v;  ///< n x k
  [[nodiscard]] std::size_t rank() const noexcept { return u.cols(); }
};

/// B := B * L^{-T} for B = U V^T and L lower triangular: V := L^{-1} V.
void lr_trsm_right_lower_trans(Span2D<const double> l, la::Matrix<double>& v);

/// C += alpha * (Ua Va^T) (Ub Vb^T)^T, C dense.
void gemm_lr_lr_dense(double alpha, const LrView& a, const LrView& b, Span2D<double> c);

/// C += alpha * (Ua Va^T) * B^T, C dense, B dense.
void gemm_lr_dense_dense(double alpha, const LrView& a, Span2D<const double> b,
                         Span2D<double> c);

/// C += alpha * A * (Ub Vb^T)^T, C dense, A dense.
void gemm_dense_lr_dense(double alpha, Span2D<const double> a, const LrView& b,
                         Span2D<double> c);

/// C += alpha * (U V^T)(U V^T)^T for a symmetric dense C (full storage);
/// the SYRK of the TLR panel onto a diagonal tile.
void syrk_lr_dense(double alpha, const LrView& a, Span2D<double> c);

/// Product P = (op A)(op B)^T in low-rank form; rank(P) = min(rank inputs)
/// for LR operands. For dense x dense the product is materialized and
/// compressed to `tol` (rare: both operands inside the dense band).
struct LrProduct {
  la::Matrix<double> u;
  la::Matrix<double> v;
};

LrProduct product_lr_lr(const LrView& a, const LrView& b);
LrProduct product_lr_dense(const LrView& a, Span2D<const double> b);
LrProduct product_dense_lr(Span2D<const double> a, const LrView& b);
LrProduct product_dense_dense(Span2D<const double> a, Span2D<const double> b, double tol);

/// Accumulate C := C + alpha * P into a low-rank tile (uc, vc), followed by
/// rounding to `abs_tol` (absolute Frobenius threshold) with the chosen
/// method (QR+SVD reference or the cheaper RRQR).
void lr_axpy_rounded(double alpha, const LrProduct& p, la::Matrix<double>& uc,
                     la::Matrix<double>& vc, double abs_tol, RoundingMethod method);

/// y += alpha * (U V^T) x  (tile GEMV for the triangular solve phase).
void lr_gemv(double alpha, const LrView& a, const double* x, double* y);

/// y += alpha * (U V^T)^T x.
void lr_gemv_trans(double alpha, const LrView& a, const double* x, double* y);

}  // namespace gsx::tlr
