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

double resolve_threshold(double tol, TolMode mode, double norm_f) {
  return (mode == TolMode::RelativeFrobenius) ? tol * norm_f : tol;
}

la::Matrix<double> copy_of(Span2D<const double> a) {
  la::Matrix<double> m(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) m(i, j) = a(i, j);
  return m;
}

}  // namespace

Compressed compress_svd(Span2D<const double> a, double tol, TolMode mode) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double threshold = resolve_threshold(tol, mode, la::norm_frobenius<double>(a));

  // Step 1: column-pivoted QR, A P = Q1 [R11 R12] + Q2 [0 R22], stopped once
  // ||R22||_F <= threshold / 100, so k stays close to the rank.
  la::Matrix<double> r = copy_of(a);
  la::Matrix<double> q1;
  std::vector<std::size_t> perm;
  const std::size_t k = la::qr_pivoted(r.view(), q1, perm, 0.01 * threshold);
  const double tail = la::norm_frobenius<double>(r.cview().sub(k, k, m - k, n - k));

  // Step 2: SVD of the k x n factor R1 = [R11 R12]. Q1 is orthogonal to Q2,
  // so the two errors add in squares: truncating R1 at
  // sqrt(threshold^2 - ||R22||^2) keeps ||A - U V^T||_F <= threshold, which
  // makes the rank at least the full SVD's (Eckart-Young); sigma_i(R1) <=
  // sigma_i(A) makes it at most the full SVD's rank at that reduced budget.
  la::Matrix<double> r1(k, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < k; ++i) r1(i, j) = r(i, j);
  la::Matrix<double> ur, vr;
  std::vector<double> s;
  la::svd_jacobi(r1, ur, s, vr);
  const std::size_t rank =
      truncation_rank(s, std::sqrt(std::max(0.0, threshold * threshold - tail * tail)));

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

Compressed compress_aca(Span2D<const double> a, double tol, TolMode mode) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double norm_f = la::norm_frobenius<double>(a);
  const double threshold = resolve_threshold(tol, mode, norm_f);

  // The tile is assembled, so the residual R = A - U V^T is kept explicitly
  // and ACA stops on its exact norm, leaving most of the budget to rounding.
  la::Matrix<double> res = copy_of(a);
  double res_norm = norm_f;

  std::vector<std::vector<double>> us, vs;  // rank-1 terms
  std::vector<bool> row_used(m, false), col_used(n, false);
  std::size_t next_row = 0;
  while (res_norm > 0.1 * threshold) {
    // Pivot row: first unused (classic partial pivoting starts from the
    // residual row of the previous pivot; a fresh unused row is more robust
    // for covariance blocks with decaying structure).
    while (next_row < m && row_used[next_row]) ++next_row;
    if (next_row >= m) break;
    std::size_t pi = next_row;

    // Pivot column: max |residual| in the pivot row.
    double best = 0.0;
    std::size_t pj = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (!col_used[j] && std::fabs(res(pi, j)) > best) {
        best = std::fabs(res(pi, j));
        pj = j;
      }
    }
    if (pj == n) {
      row_used[pi] = true;
      continue;
    }
    // Improve the pivot row choice: max |residual| within the pivot column.
    double cbest = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (!row_used[i] && std::fabs(res(i, pj)) > cbest) {
        cbest = std::fabs(res(i, pj));
        pi = i;
      }
    }
    const double pivot = res(pi, pj);

    std::vector<double> uvec(m), vvec(n);
    for (std::size_t i = 0; i < m; ++i) uvec[i] = res(i, pj) / pivot;
    for (std::size_t j = 0; j < n; ++j) vvec[j] = res(pi, j);
    row_used[pi] = true;
    col_used[pj] = true;
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) res(i, j) -= uvec[i] * vvec[j];
    res_norm = la::norm_frobenius<double>(res.cview());
    us.push_back(std::move(uvec));
    vs.push_back(std::move(vvec));
  }

  Compressed out;
  const std::size_t k = us.size();
  out.u.resize(m, k);
  out.v.resize(n, k);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t i = 0; i < m; ++i) out.u(i, t) = us[t][i];
    for (std::size_t j = 0; j < n; ++j) out.v(j, t) = vs[t][j];
  }
  // ACA over-estimates rank; round down with what the residual left of the
  // budget (the two errors add, they need not be orthogonal).
  if (k > 0)
    recompress(out.u, out.v, std::max(0.0, threshold - res_norm), TolMode::Absolute,
               RoundingMethod::QrSvd);
  return out;
}

Compressed compress(CompressionMethod method, Span2D<const double> a, double tol,
                    TolMode mode) {
  switch (method) {
    case CompressionMethod::SVD: return compress_svd(a, tol, mode);
    case CompressionMethod::ACA: return compress_aca(a, tol, mode);
  }
  GSX_REQUIRE(false, "compress: unknown method");
  return {};
}

namespace {

/// RRQR rounding: A = U V^T = Q_u (R_u V^T); a column-pivoted QR of
/// W^T = (R_u V^T)^T reveals the numerical rank without an SVD. Truncation
/// error equals the Frobenius norm of the dropped trailing rows of R_w.
void recompress_rrqr(la::Matrix<double>& u, la::Matrix<double>& v, double threshold) {
  const std::size_t k = u.cols();
  const std::size_t m = u.rows();
  const std::size_t n = v.rows();

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
  // mass stays below the threshold.
  std::vector<double> row_tail(k + 1, 0.0);
  for (std::size_t l = k; l-- > 0;) {
    double s = 0.0;
    for (std::size_t j = l; j < k; ++j) s += wt(l, j) * wt(l, j);
    row_tail[l] = row_tail[l + 1] + s;
  }
  std::size_t r = k;
  while (r > 0 && std::sqrt(row_tail[r - 1]) <= threshold) --r;

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

}  // namespace

void recompress(la::Matrix<double>& u, la::Matrix<double>& v, double tol, TolMode mode,
                RoundingMethod method) {
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
    Compressed c = compress_svd(full.cview(), tol, mode);
    u = std::move(c.u);
    v = std::move(c.v);
    return;
  }

  if (method == RoundingMethod::Rrqr) {
    double threshold = tol;
    if (mode == TolMode::RelativeFrobenius) {
      // ||U V^T||_F without materializing: Frobenius of R_u R_v^T is what
      // the QrSvd path uses; a cheap upper proxy here is ||U||_F * ||V||_2
      // — instead reuse the exact product-of-QR-cores norm computed below.
      la::Matrix<double> ru = u, rv = v, qtmp;
      la::qr_factor(ru.view(), qtmp);
      la::qr_factor(rv.view(), qtmp);
      la::Matrix<double> core(k, k);
      la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0,
                       Span2D<const double>(ru.data(), k, k, ru.rows()),
                       Span2D<const double>(rv.data(), k, k, rv.rows()), 0.0, core.view());
      threshold = tol * la::norm_frobenius<double>(core.cview());
    }
    recompress_rrqr(u, v, threshold);
    return;
  }

  // U = Qu Ru, V = Qv Rv;  U V^T = Qu (Ru Rv^T) Qv^T; SVD the small core.
  la::Matrix<double> qu, qv;
  la::Matrix<double> ru = u;  // will hold R in its upper triangle
  la::Matrix<double> rv = v;
  la::qr_factor(ru.view(), qu);
  la::qr_factor(rv.view(), qv);

  la::Matrix<double> core(k, k);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0,
                   Span2D<const double>(ru.data(), k, k, ru.rows()),
                   Span2D<const double>(rv.data(), k, k, rv.rows()), 0.0, core.view());

  la::Matrix<double> uc, vc;
  std::vector<double> s;
  la::svd_jacobi(core, uc, s, vc);

  double norm_f = 0.0;
  for (double sv : s) norm_f += sv * sv;
  norm_f = std::sqrt(norm_f);  // == ||U V^T||_F
  const double threshold = resolve_threshold(tol, mode, norm_f);
  const std::size_t r = truncation_rank(s, threshold);

  la::Matrix<double> ucr(k, r), vcr(k, r);
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t i = 0; i < k; ++i) ucr(i, j) = uc(i, j) * s[j];
    for (std::size_t i = 0; i < k; ++i) vcr(i, j) = vc(i, j);
  }
  la::Matrix<double> new_u(m, r), new_v(n, r);
  if (r > 0) {
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, qu.cview(), ucr.cview(),
                     0.0, new_u.view());
    la::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, 1.0, qv.cview(), vcr.cview(),
                     0.0, new_v.view());
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
