// LAPACK-style dense factorizations over column-major views.
#pragma once

#include <cstddef>
#include <vector>

#include "common/span2d.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"

namespace gsx::la {

/// Cholesky factorization in place: A = L L^T (Lower) or U^T U (Upper).
/// Returns 0 on success, or 1-based index of the first non-positive pivot
/// (matching LAPACK xPOTRF info semantics). Only the `uplo` triangle of A is
/// referenced or written; the other triangle is left untouched.
template <typename T>
int potrf(Uplo uplo, Span2D<T> a);

extern template int potrf<double>(Uplo, Span2D<double>);
extern template int potrf<float>(Uplo, Span2D<float>);

/// Householder QR: A (m x n, m >= n) is replaced by R in its upper triangle;
/// `q` is returned with orthonormal columns spanning range(A) (thin Q, m x n).
template <typename T>
void qr_factor(Span2D<T> a, Matrix<T>& q);

extern template void qr_factor<double>(Span2D<double>, Matrix<double>&);
extern template void qr_factor<float>(Span2D<float>, Matrix<float>&);

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
template <typename T>
std::size_t qr_pivoted(Span2D<T> a, Matrix<T>& q, std::vector<std::size_t>& perm,
                       T stop_norm = T{0});

extern template std::size_t qr_pivoted<double>(Span2D<double>, Matrix<double>&,
                                               std::vector<std::size_t>&, double);
extern template std::size_t qr_pivoted<float>(Span2D<float>, Matrix<float>&,
                                              std::vector<std::size_t>&, float);

/// Thin SVD by one-sided Jacobi: A (m x n, any shape) = U diag(s) V^T with
/// U m x r, V n x r, r = min(m, n). Singular values descending. Accurate to
/// machine precision for the small/rectangular blocks used in tile
/// compression and recompression.
template <typename T>
void svd_jacobi(const Matrix<T>& a, Matrix<T>& u, std::vector<T>& s, Matrix<T>& v);

extern template void svd_jacobi<double>(const Matrix<double>&, Matrix<double>&,
                                        std::vector<double>&, Matrix<double>&);
extern template void svd_jacobi<float>(const Matrix<float>&, Matrix<float>&,
                                       std::vector<float>&, Matrix<float>&);

/// Frobenius norm of a general view, summed in FP64 at any storage scalar.
template <typename T>
double norm_frobenius(Span2D<const T> a);

extern template double norm_frobenius<double>(Span2D<const double>);
extern template double norm_frobenius<float>(Span2D<const float>);
extern template double norm_frobenius<half>(Span2D<const half>);
extern template double norm_frobenius<bfloat16>(Span2D<const bfloat16>);

}  // namespace gsx::la
