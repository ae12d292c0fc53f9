// Low-rank compression of dense tiles: A ~= U V^T to a target accuracy.
//
// The paper compresses off-diagonal tiles "up to a target accuracy
// threshold" (1e-8 for the geostatistics application). Two compressors are
// provided — truncated SVD (the default; QR-first, so its cost follows the
// rank rather than the tile size) and adaptive cross approximation (ACA) —
// plus the QR-based recompression ("rounding") used after low-rank additions
// inside the TLR Cholesky. Both check their error against the assembled
// tile, so ||A - U V^T||_F <= threshold holds up to floating-point rounding
// whichever is chosen.
#pragma once

#include <cstddef>

#include "common/span2d.hpp"
#include "la/matrix.hpp"

namespace gsx::tlr {

enum class TolMode : unsigned char {
  RelativeFrobenius,  ///< ||A - UV^T||_F <= tol * ||A||_F
  Absolute,           ///< ||A - UV^T||_F <= tol
};

enum class CompressionMethod : unsigned char { SVD, ACA };

struct Compressed {
  la::Matrix<double> u;  ///< m x k
  la::Matrix<double> v;  ///< n x k
  [[nodiscard]] std::size_t rank() const noexcept { return u.cols(); }
};

/// Truncated SVD compression, QR first: a column-pivoted QR stopped once
/// the trailing block's norm ||R22||_F is <= threshold / 100, then a Jacobi
/// SVD of the k x n factor [R11 R12] truncated at
/// sqrt(threshold^2 - ||R22||_F^2). ||A - U V^T||_F <= threshold holds as
/// for a full-tile SVD. The rank is never below the full SVD's truncation
/// rank, and equals it unless the energy that truncation drops lies within
/// the last 1e-4 of threshold^2.
Compressed compress_svd(Span2D<const double> a, double tol,
                        TolMode mode = TolMode::RelativeFrobenius);

/// Adaptive cross approximation with partial pivoting on the assembled
/// tile. It keeps the residual explicitly, stops once ||A - U V^T||_F is
/// <= threshold / 10, and rounds the cross terms (QrSvd) with the budget
/// left, so ||A - U V^T||_F <= threshold holds like compress_svd's.
Compressed compress_aca(Span2D<const double> a, double tol,
                        TolMode mode = TolMode::RelativeFrobenius);

/// Dispatch on method.
Compressed compress(CompressionMethod method, Span2D<const double> a, double tol,
                    TolMode mode = TolMode::RelativeFrobenius);

/// How low-rank sums are rounded back to the tolerance.
enum class RoundingMethod : unsigned char {
  QrSvd,  ///< two thin QRs + SVD of the small core (reference accuracy)
  Rrqr,   ///< one thin QR + one column-pivoted QR (no SVD, ~2-4x cheaper)
};

/// QR-based rounding of a low-rank representation: replaces (u, v) by an
/// equivalent factorization truncated to `tol`. Used after LR additions
/// (GEMM accumulation into a low-rank tile).
void recompress(la::Matrix<double>& u, la::Matrix<double>& v, double tol, TolMode mode,
                RoundingMethod method);

/// ||A - U V^T||_F (testing helper).
double lowrank_error(Span2D<const double> a, const la::Matrix<double>& u,
                     const la::Matrix<double>& v);

}  // namespace gsx::tlr
