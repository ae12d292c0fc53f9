#include "la/lapack.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gsx::la {

namespace {

/// Unblocked lower Cholesky of the leading block; 0 or 1-based failure index.
int potf2_lower(Span2D<double> a) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    double akk = a(k, k);
    if (!(akk > 0.0)) return static_cast<int>(k) + 1;
    akk = std::sqrt(akk);
    a(k, k) = akk;
    const double inv = 1.0 / akk;
    for (std::size_t i = k + 1; i < n; ++i) a(i, k) *= inv;
    for (std::size_t j = k + 1; j < n; ++j) {
      const double ajk = a(j, k);
      if (ajk == 0.0) continue;
      double* aj = &a(0, j);
      const double* ak = &a(0, k);
      for (std::size_t i = j; i < n; ++i) aj[i] -= ak[i] * ajk;
    }
  }
  return 0;
}

constexpr std::size_t kPotrfBlock = 96;

}  // namespace

int potrf(Span2D<double> a) {
  const std::size_t n = a.rows();
  GSX_REQUIRE(a.cols() == n, "potrf: matrix must be square");

  // Blocked right-looking lower Cholesky.
  for (std::size_t k = 0; k < n; k += kPotrfBlock) {
    const std::size_t kb = std::min(kPotrfBlock, n - k);
    auto akk = a.sub(k, k, kb, kb);
    const int info = potf2_lower(akk);
    if (info != 0) return static_cast<int>(k) + info;
    if (k + kb < n) {
      const std::size_t rest = n - k - kb;
      auto panel = a.sub(k + kb, k, rest, kb);
      trsm_right_trans<double>(akk, panel);
      auto trail = a.sub(k + kb, k + kb, rest, rest);
      syrk<double>(Uplo::Lower, Trans::NoTrans, -1.0, panel, 1.0, trail);
    }
  }
  return 0;
}

void qr_factor(Span2D<double> a, Matrix<double>& q) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  GSX_REQUIRE(m >= n, "qr_factor: requires m >= n (tall or square)");

  std::vector<double> tau(n);
  std::vector<double> v(m);

  // Unblocked Householder: fine for the tall-skinny blocks of recompression.
  for (std::size_t k = 0; k < n; ++k) {
    // Build the reflector annihilating A(k+1:m, k).
    double normx{};
    for (std::size_t i = k; i < m; ++i) normx += a(i, k) * a(i, k);
    normx = std::sqrt(normx);
    if (normx == 0.0) {
      tau[k] = 0.0;
      continue;
    }
    const double alpha = a(k, k);
    const double beta = (alpha >= 0.0) ? -normx : normx;
    tau[k] = (beta - alpha) / beta;
    const double scal = 1.0 / (alpha - beta);
    for (std::size_t i = k + 1; i < m; ++i) a(i, k) *= scal;
    a(k, k) = beta;
    // Apply (I - tau v v^T) to trailing columns; v = [1; A(k+1:m, k)].
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = a(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += a(i, k) * a(i, j);
      s *= tau[k];
      a(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) a(i, j) -= a(i, k) * s;
    }
  }

  // Accumulate thin Q = H_0 ... H_{n-1} * [I; 0].
  q.resize(m, n);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    if (tau[k] == 0.0) continue;
    for (std::size_t j = k; j < n; ++j) {
      double s = q(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += a(i, k) * q(i, j);
      s *= tau[k];
      q(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) q(i, j) -= a(i, k) * s;
    }
  }

  // Zero the sub-diagonal of A so the caller reads a clean R.
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < m; ++i) a(i, j) = 0.0;
}

std::size_t qr_pivoted(Span2D<double> a, Matrix<double>& q, std::vector<std::size_t>& perm,
                       double stop_norm) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t steps = std::min(m, n);

  perm.resize(n);
  for (std::size_t j = 0; j < n; ++j) perm[j] = j;
  std::vector<double> tau(steps, 0.0);
  // Partial column norms with downdating (and their reference values for
  // the cancellation-triggered recomputation).
  std::vector<double> norms(n), norms0(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s{};
    for (std::size_t i = 0; i < m; ++i) s += a(i, j) * a(i, j);
    norms[j] = std::sqrt(s);
    norms0[j] = norms[j];
  }

  std::size_t k = 0;
  for (; k < steps; ++k) {
    // Early stop on the trailing block summed exactly: the downdated column
    // norms are estimates and can under-report it.
    if (stop_norm > 0.0 &&
        norm_frobenius<double>(a.sub(k, k, m - k, n - k)) <= stop_norm)
      break;

    // Pivot: residual column of largest norm.
    std::size_t p = k;
    for (std::size_t j = k + 1; j < n; ++j)
      if (norms[j] > norms[p]) p = j;
    if (p != k) {
      for (std::size_t i = 0; i < m; ++i) std::swap(a(i, k), a(i, p));
      std::swap(norms[k], norms[p]);
      std::swap(norms0[k], norms0[p]);
      std::swap(perm[k], perm[p]);
    }

    // Householder reflector annihilating A(k+1:m, k).
    double normx{};
    for (std::size_t i = k; i < m; ++i) normx += a(i, k) * a(i, k);
    normx = std::sqrt(normx);
    if (normx == 0.0) {
      tau[k] = 0.0;
      continue;
    }
    const double alpha = a(k, k);
    const double beta = (alpha >= 0.0) ? -normx : normx;
    tau[k] = (beta - alpha) / beta;
    const double scal = 1.0 / (alpha - beta);
    for (std::size_t i = k + 1; i < m; ++i) a(i, k) *= scal;
    a(k, k) = beta;

    // Apply to trailing columns and downdate their partial norms.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = a(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += a(i, k) * a(i, j);
      s *= tau[k];
      a(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) a(i, j) -= a(i, k) * s;

      if (norms[j] != 0.0) {
        const double t = std::abs(a(k, j)) / norms[j];
        const double f = std::max(0.0, (1.0 - t) * (1.0 + t));
        // Recompute when cancellation erodes the downdated estimate.
        const double est = norms[j] * std::sqrt(f);
        if (est <= 0.1 * norms0[j] * std::sqrt(std::sqrt(f))) {
          double s2{};
          for (std::size_t i = k + 1; i < m; ++i) s2 += a(i, j) * a(i, j);
          norms[j] = std::sqrt(s2);
          norms0[j] = norms[j];
        } else {
          norms[j] = est;
        }
      }
    }
  }

  // Accumulate thin Q from the k reflectors taken (same back-substitution
  // as qr_factor).
  q.resize(m, k);
  for (std::size_t j = 0; j < k; ++j) q(j, j) = 1.0;
  for (std::size_t l = k; l-- > 0;) {
    if (tau[l] == 0.0) continue;
    for (std::size_t j = l; j < k; ++j) {
      double s = q(l, j);
      for (std::size_t i = l + 1; i < m; ++i) s += a(i, l) * q(i, j);
      s *= tau[l];
      q(l, j) -= s;
      for (std::size_t i = l + 1; i < m; ++i) q(i, j) -= a(i, l) * s;
    }
  }
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = j + 1; i < m; ++i) a(i, j) = 0.0;
  return k;
}

void svd_jacobi(const Matrix<double>& a, Matrix<double>& u, std::vector<double>& s,
                Matrix<double>& v) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Work on W (m x n if tall, else transpose so rows >= cols), with V
  // accumulating the right rotations; transpose back at the end.
  const bool transposed = m < n;
  Matrix<double> w = transposed ? a.transposed() : a;
  const std::size_t wm = w.rows();
  const std::size_t wn = w.cols();
  Matrix<double> vv = Matrix<double>::identity(wn);

  const double eps = std::numeric_limits<double>::epsilon();
  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < wn; ++p) {
      for (std::size_t q = p + 1; q < wn; ++q) {
        // 2x2 Gram block of columns p, q.
        double app{}, aqq{}, apq{};
        const double* cp = &w(0, p);
        const double* cq = &w(0, q);
        for (std::size_t i = 0; i < wm; ++i) {
          app += cp[i] * cp[i];
          aqq += cq[i] * cq[i];
          apq += cp[i] * cq[i];
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) continue;
        converged = false;
        // Jacobi rotation zeroing the off-diagonal Gram entry.
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = ((zeta >= 0.0) ? 1.0 : -1.0) /
                    (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = c * t;
        double* wp = &w(0, p);
        double* wq = &w(0, q);
        for (std::size_t i = 0; i < wm; ++i) {
          const double t1 = wp[i];
          wp[i] = c * t1 - sn * wq[i];
          wq[i] = sn * t1 + c * wq[i];
        }
        double* vp = &vv(0, p);
        double* vq = &vv(0, q);
        for (std::size_t i = 0; i < wn; ++i) {
          const double t1 = vp[i];
          vp[i] = c * t1 - sn * vq[i];
          vq[i] = sn * t1 + c * vq[i];
        }
      }
    }
    if (converged) break;
  }

  // Singular values = column norms; left vectors = normalized columns.
  s.assign(wn, 0.0);
  Matrix<double> uu(wm, wn);
  for (std::size_t j = 0; j < wn; ++j) {
    double nrm{};
    for (std::size_t i = 0; i < wm; ++i) nrm += w(i, j) * w(i, j);
    nrm = std::sqrt(nrm);
    s[j] = nrm;
    if (nrm > 0.0) {
      const double inv = 1.0 / nrm;
      for (std::size_t i = 0; i < wm; ++i) uu(i, j) = w(i, j) * inv;
    }
  }

  // Sort descending.
  std::vector<std::size_t> idx(wn);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) { return s[x] > s[y]; });
  Matrix<double> us(wm, wn), vs(wn, wn);
  std::vector<double> ss(wn);
  for (std::size_t j = 0; j < wn; ++j) {
    ss[j] = s[idx[j]];
    for (std::size_t i = 0; i < wm; ++i) us(i, j) = uu(i, idx[j]);
    for (std::size_t i = 0; i < wn; ++i) vs(i, j) = vv(i, idx[j]);
  }
  s = std::move(ss);

  if (!transposed) {
    u = std::move(us);
    v = std::move(vs);
  } else {  // A = (W)^T = (U_w S V_w^T)^T = V_w S U_w^T
    u = std::move(vs);
    v = std::move(us);
  }
}

template <typename T>
double norm_frobenius(Span2D<const T> a) {
  double s = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const T* col = &a(0, j);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double v = static_cast<double>(col[i]);
      s += v * v;
    }
  }
  return std::sqrt(s);
}

template double norm_frobenius<double>(Span2D<const double>);
template double norm_frobenius<float>(Span2D<const float>);
template double norm_frobenius<half>(Span2D<const half>);
template double norm_frobenius<bfloat16>(Span2D<const bfloat16>);

}  // namespace gsx::la
