// Low-rank compression of dense tiles: A ~= U V^T to an absolute accuracy.
//
// The paper compresses off-diagonal tiles "up to a target accuracy
// threshold" (1e-8 for the geostatistics application) and re-truncates them
// after every update, as the TLR MLE it extends does. compress_svd is the
// compressor (a truncated SVD, QR-first, so its cost follows the rank rather
// than the tile size) and recompress the rounding used after low-rank
// additions inside the TLR Cholesky (one thin QR and one column-pivoted QR).
// Both keep ||A - U V^T||_F <= abs_tol up to floating-point rounding.
#pragma once

#include <cstddef>

#include "common/span2d.hpp"
#include "la/matrix.hpp"

namespace gsx::tlr {

/// Tiles are compressed by compress_svd. The enum remains only so that
/// callers naming it still compile; nothing reads the value.
enum class CompressionMethod : unsigned char { SVD };

/// Low-rank sums are rounded by recompress. The enum remains only so that
/// callers naming it still compile; nothing reads the value. Rrqr keeps the
/// value 1 it had beside the QR+SVD rounding, so a checkpoint stores the
/// same byte.
enum class RoundingMethod : unsigned char { Rrqr = 1 };

struct Compressed {
  la::Matrix<double> u;  ///< m x k
  la::Matrix<double> v;  ///< n x k
  [[nodiscard]] std::size_t rank() const noexcept { return u.cols(); }
};

/// Truncated SVD compression, QR first: a column-pivoted QR stopped once
/// the trailing block's norm ||R22||_F is <= abs_tol / 100, then a Jacobi
/// SVD of the k x n factor [R11 R12] truncated at
/// sqrt(abs_tol^2 - ||R22||_F^2). ||A - U V^T||_F <= abs_tol holds as for
/// a full-tile SVD. The rank is never below the full SVD's truncation rank,
/// and equals it unless the energy that truncation drops lies within the
/// last 1e-4 of abs_tol^2.
Compressed compress_svd(Span2D<const double> a, double abs_tol);

/// RRQR rounding of a low-rank representation: replaces (u, v) by an
/// equivalent factorization truncated to ||U V^T - U' V'^T||_F <= abs_tol.
/// Used after LR additions (GEMM accumulation into a low-rank tile). Factors
/// wider than the block (k > min(m, n)) are multiplied out and compressed by
/// compress_svd instead.
void recompress(la::Matrix<double>& u, la::Matrix<double>& v, double abs_tol);

/// ||A - U V^T||_F (the health audit's observed compression error).
double lowrank_error(Span2D<const double> a, const la::Matrix<double>& u,
                     const la::Matrix<double>& v);

}  // namespace gsx::tlr
