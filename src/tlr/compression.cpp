#include "tlr/compression.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/lapack.hpp"

namespace gsx::tlr {

namespace {

/// Truncation rank for a descending singular spectrum: smallest k with
/// sqrt(sum_{i>=k} s_i^2) <= threshold.
std::size_t truncation_rank(const std::vector<double>& s, double threshold) {
  // Tail energies computed back-to-front.
  std::size_t k = s.size();
  double tail = 0.0;
  while (k > 0) {
    const double cand = tail + s[k - 1] * s[k - 1];
    if (std::sqrt(cand) > threshold) break;
    tail = cand;
    --k;
  }
  return k;
}

la::Matrix<double> copy_of(Span2D<const double> a) {
  la::Matrix<double> m(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) m(i, j) = a(i, j);
  return m;
}

}  // namespace

Compressed compress_svd(Span2D<const double> a, double abs_tol) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Step 1: column-pivoted QR, A P = Q1 [R11 R12] + Q2 [0 R22], stopped once
  // ||R22||_F <= abs_tol / 100, so k stays close to the rank.
  la::Matrix<double> r = copy_of(a);
  la::Matrix<double> q1;
  std::vector<std::size_t> perm;
  const std::size_t k = la::qr_pivoted(r.view(), q1, perm, 0.01 * abs_tol);
  const double tail = la::norm_frobenius<double>(r.cview().sub(k, k, m - k, n - k));

  // Step 2: SVD of the k x n factor R1 = [R11 R12]. Q1 is orthogonal to Q2,
  // so the two errors add in squares: truncating R1 at
  // sqrt(abs_tol^2 - ||R22||^2) keeps ||A - U V^T||_F <= abs_tol, which
  // makes the rank at least the full SVD's (Eckart-Young); sigma_i(R1) <=
  // sigma_i(A) makes it at most the full SVD's rank at that reduced budget.
  la::Matrix<double> r1(k, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < k; ++i) r1(i, j) = r(i, j);
  la::Matrix<double> ur, vr;
  std::vector<double> s;
  la::svd_jacobi(r1, ur, s, vr);
  const std::size_t rank =
      truncation_rank(s, std::sqrt(std::max(0.0, abs_tol * abs_tol - tail * tail)));

  // U = Q1 Ur diag(s), V = P Vr.
  la::Matrix<double> us(k, rank);
  for (std::size_t c = 0; c < rank; ++c)
    for (std::size_t i = 0; i < k; ++i) us(i, c) = ur(i, c) * s[c];
  Compressed out;
  out.u.resize(m, rank);
  out.v.resize(n, rank);
  if (rank > 0)
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, q1.cview(), us.cview(), 0.0,
                     out.u.view());
  for (std::size_t c = 0; c < rank; ++c)
    for (std::size_t j = 0; j < n; ++j) out.v(perm[j], c) = vr(j, c);
  return out;
}

void recompress(la::Matrix<double>& u, la::Matrix<double>& v, double abs_tol) {
  const std::size_t k = u.cols();
  GSX_REQUIRE(v.cols() == k, "recompress: U/V rank mismatch");
  if (k == 0) return;
  const std::size_t m = u.rows();
  const std::size_t n = v.rows();

  // If the rank is not actually smaller than the block, fall back to SVD of
  // the materialized product (QR needs tall factors).
  if (k > m || k > n) {
    la::Matrix<double> full(m, n);
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                     full.view());
    Compressed c = compress_svd(full.cview(), abs_tol);
    u = std::move(c.u);
    v = std::move(c.v);
    return;
  }

  // A = U V^T = Q_u (R_u V^T); a column-pivoted QR of W^T = (R_u V^T)^T
  // reveals the numerical rank without an SVD. Truncation error equals the
  // Frobenius norm of the dropped trailing rows of R_w.
  la::Matrix<double> ru = u;  // QR of U in place
  la::Matrix<double> qu;
  la::qr_factor(ru.view(), qu);

  // W^T = V * R_u^T  (n x k).
  la::Matrix<double> wt(n, k);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, v.cview(),
                   Span2D<const double>(ru.data(), k, k, ru.rows()), 0.0, wt.view());

  la::Matrix<double> qw;
  std::vector<std::size_t> perm;
  la::qr_pivoted(wt.view(), qw, perm);  // wt now holds R_w (k x k upper)

  // Truncation rank: drop trailing rows of R_w whose accumulated Frobenius
  // mass stays below abs_tol.
  std::vector<double> row_tail(k + 1, 0.0);
  for (std::size_t l = k; l-- > 0;) {
    double s = 0.0;
    for (std::size_t j = l; j < k; ++j) s += wt(l, j) * wt(l, j);
    row_tail[l] = row_tail[l + 1] + s;
  }
  std::size_t r = k;
  while (r > 0 && std::sqrt(row_tail[r - 1]) <= abs_tol) --r;

  // U' = Q_u * Y with Y[perm[j], :] = R_w(1:r, j)^T;  V' = Q_w(:, 1:r).
  la::Matrix<double> y(k, r);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t c = 0; c < r; ++c) y(perm[j], c) = wt(c, j);
  la::Matrix<double> new_u(m, r), new_v(n, r);
  if (r > 0) {
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, qu.cview(), y.cview(),
                     0.0, new_u.view());
    for (std::size_t c = 0; c < r; ++c)
      for (std::size_t i = 0; i < n; ++i) new_v(i, c) = qw(i, c);
  }
  u = std::move(new_u);
  v = std::move(new_v);
}

double lowrank_error(Span2D<const double> a, const la::Matrix<double>& u,
                     const la::Matrix<double>& v) {
  la::Matrix<double> rec(a.rows(), a.cols());
  if (u.cols() > 0)
    la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                     rec.view());
  double s = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double d = rec(i, j) - a(i, j);
      s += d * d;
    }
  return std::sqrt(s);
}

}  // namespace gsx::tlr
