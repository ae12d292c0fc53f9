// LAPACK-style dense factorizations over column-major views, in FP64: the
// tile Cholesky's diagonal tiles, the dense oracles and the TLR
// compression's QR and SVD.
#pragma once

#include <cstddef>
#include <vector>

#include "common/span2d.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace gsx::la {

/// Lower Cholesky factorization in place: A = L L^T.
/// Returns 0 on success, or 1-based index of the first non-positive pivot
/// (matching LAPACK xPOTRF info semantics). Only the lower triangle of A is
/// referenced or written; the strict upper triangle is left untouched.
int potrf(Span2D<double> a);

/// Householder QR: A (m x n, m >= n) is replaced by R in its upper triangle;
/// `q` is returned with orthonormal columns spanning range(A) (thin Q, m x n).
void qr_factor(Span2D<double> a, Matrix<double>& q);

/// Column-pivoted thin QR (xGEQP3-style, with norm downdating):
/// A * P = Q * R for any m x n A. Runs k = min(m, n) Householder steps, or
/// with `stop_norm` > 0 stops at the first k whose trailing block
/// ||A(k:m, k:n)||_F, summed exactly, is <= stop_norm. Returns k. On return
/// `a` holds R1 = [R11 R12] in its first k rows (upper trapezoidal, zeros
/// below the diagonal of the first k columns) and the unreduced trailing
/// block R22 in a(k:m, k:n); `q` is the m x k orthonormal factor Q1, and
/// perm[j] the original index of the column now in position j. The diagonal
/// of R is non-increasing in magnitude — the rank-revealing property the
/// cheap TLR recompression and the QR-first tile SVD rely on.
std::size_t qr_pivoted(Span2D<double> a, Matrix<double>& q, std::vector<std::size_t>& perm,
                       double stop_norm = 0.0);

/// Thin SVD by one-sided Jacobi: A (m x n, any shape) = U diag(s) V^T with
/// U m x r, V n x r, r = min(m, n). Singular values descending. Accurate to
/// machine precision for the small/rectangular blocks used in tile
/// compression and recompression.
void svd_jacobi(const Matrix<double>& a, Matrix<double>& u, std::vector<double>& s,
                Matrix<double>& v);

/// Frobenius norm of a general view, summed in FP64 at any storage scalar.
template <typename T>
double norm_frobenius(Span2D<const T> a);

extern template double norm_frobenius<double>(Span2D<const double>);
extern template double norm_frobenius<float>(Span2D<const float>);
extern template double norm_frobenius<half>(Span2D<const half>);
extern template double norm_frobenius<bfloat16>(Span2D<const bfloat16>);

}  // namespace gsx::la
