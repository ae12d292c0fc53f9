#include "tlr/lr_kernels.hpp"

#include "common/error.hpp"
#include "tlr/compression.hpp"
#include "obs/flops.hpp"

namespace gsx::tlr {

using la::Trans;

namespace {

// All low-rank kernels compute in FP64 (operands are promoted by the
// callers); attribute their work to the FP64 row of the flop ledger.
inline void lr_flops(obs::KernelOp op, std::uint64_t flops) {
  obs::add_flops(op, Precision::FP64, flops);
}

}  // namespace

void lr_trsm_right_lower_trans(Span2D<const double> l, la::Matrix<double>& v) {
  GSX_REQUIRE(l.rows() == v.rows(), "lr_trsm: L order must match V rows");
  if (v.cols() == 0) return;
  lr_flops(obs::KernelOp::LrTrsm, obs::trsm_flops(v.cols(), v.rows()));
  la::trsm_left(l, v.view());
}

void gemm_lr_lr_dense(double alpha, const LrView& a, const LrView& b, Span2D<double> c) {
  const std::size_t ka = a.rank();
  const std::size_t kb = b.rank();
  if (ka == 0 || kb == 0) return;
  lr_flops(obs::KernelOp::LrGemm, obs::gemm_flops(ka, kb, a.v.rows()) +
                                      obs::gemm_flops(a.u.rows(), kb, ka) +
                                      obs::gemm_flops(a.u.rows(), b.u.rows(), kb));
  // M = Va^T Vb (ka x kb), W = Ua M (m x kb), C += alpha W Ub^T.
  la::Matrix<double> m(ka, kb);
  la::gemm<double>(Trans::Trans, Trans::NoTrans, 1.0, a.v, b.v, 0.0, m.view());
  la::Matrix<double> w(a.u.rows(), kb);
  la::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a.u, m.cview(), 0.0, w.view());
  la::gemm<double>(Trans::NoTrans, Trans::Trans, alpha, w.cview(), b.u, 1.0, c);
}

void gemm_lr_dense_dense(double alpha, const LrView& a, Span2D<const double> b,
                         Span2D<double> c) {
  const std::size_t ka = a.rank();
  if (ka == 0) return;
  lr_flops(obs::KernelOp::LrGemm, obs::gemm_flops(b.rows(), ka, a.v.rows()) +
                                      obs::gemm_flops(a.u.rows(), b.rows(), ka));
  // A B^T = Ua (B Va)^T; W = B Va (n x ka), C += alpha Ua W^T.
  la::Matrix<double> w(b.rows(), ka);
  la::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, b, a.v, 0.0, w.view());
  la::gemm<double>(Trans::NoTrans, Trans::Trans, alpha, a.u, w.cview(), 1.0, c);
}

void gemm_dense_lr_dense(double alpha, Span2D<const double> a, const LrView& b,
                         Span2D<double> c) {
  const std::size_t kb = b.rank();
  if (kb == 0) return;
  lr_flops(obs::KernelOp::LrGemm, obs::gemm_flops(a.rows(), kb, b.v.rows()) +
                                      obs::gemm_flops(a.rows(), b.u.rows(), kb));
  // A B^T = (A Vb) Ub^T.
  la::Matrix<double> w(a.rows(), kb);
  la::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a, b.v, 0.0, w.view());
  la::gemm<double>(Trans::NoTrans, Trans::Trans, alpha, w.cview(), b.u, 1.0, c);
}

void syrk_lr_dense(double alpha, const LrView& a, Span2D<double> c) {
  const std::size_t k = a.rank();
  if (k == 0) return;
  lr_flops(obs::KernelOp::LrSyrk, obs::gemm_flops(k, k, a.v.rows()) +
                                      obs::gemm_flops(a.u.rows(), k, k) +
                                      obs::gemm_flops(a.u.rows(), a.u.rows(), k));
  // C += alpha U (V^T V) U^T; full dense symmetric write.
  la::Matrix<double> gram(k, k);
  la::gemm<double>(Trans::Trans, Trans::NoTrans, 1.0, a.v, a.v, 0.0, gram.view());
  la::Matrix<double> w(a.u.rows(), k);
  la::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a.u, gram.cview(), 0.0, w.view());
  la::gemm<double>(Trans::NoTrans, Trans::Trans, alpha, w.cview(), a.u, 1.0, c);
}

LrProduct product_lr_lr(const LrView& a, const LrView& b) {
  const std::size_t ka = a.rank();
  const std::size_t kb = b.rank();
  lr_flops(obs::KernelOp::LrGemm,
           obs::gemm_flops(ka, kb, a.v.rows()) +
               obs::gemm_flops(ka <= kb ? b.u.rows() : a.u.rows(), ka <= kb ? ka : kb,
                               ka <= kb ? kb : ka));
  LrProduct p;
  // (Ua Va^T)(Vb Ub^T... ) = Ua (Va^T Vb) Ub^T; keep the smaller rank side
  // as the untouched factor.
  la::Matrix<double> m(ka, kb);
  if (ka > 0 && kb > 0)
    la::gemm<double>(Trans::Trans, Trans::NoTrans, 1.0, a.v, b.v, 0.0, m.view());
  if (ka <= kb) {
    // U_p = Ua (m x ka), V_p = Ub M^T (n x ka).
    p.u.resize(a.u.rows(), ka);
    for (std::size_t j = 0; j < ka; ++j)
      for (std::size_t i = 0; i < a.u.rows(); ++i) p.u(i, j) = a.u(i, j);
    p.v.resize(b.u.rows(), ka);
    if (ka > 0 && kb > 0)
      la::gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, b.u, m.cview(), 0.0, p.v.view());
  } else {
    // U_p = Ua M (m x kb), V_p = Ub.
    p.u.resize(a.u.rows(), kb);
    la::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a.u, m.cview(), 0.0, p.u.view());
    p.v.resize(b.u.rows(), kb);
    for (std::size_t j = 0; j < kb; ++j)
      for (std::size_t i = 0; i < b.u.rows(); ++i) p.v(i, j) = b.u(i, j);
  }
  return p;
}

LrProduct product_lr_dense(const LrView& a, Span2D<const double> b) {
  // A B^T = Ua (B Va)^T: rank ka.
  const std::size_t ka = a.rank();
  lr_flops(obs::KernelOp::LrGemm, obs::gemm_flops(b.rows(), ka, a.v.rows()));
  LrProduct p;
  p.u.resize(a.u.rows(), ka);
  for (std::size_t j = 0; j < ka; ++j)
    for (std::size_t i = 0; i < a.u.rows(); ++i) p.u(i, j) = a.u(i, j);
  p.v.resize(b.rows(), ka);
  if (ka > 0)
    la::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, b, a.v, 0.0, p.v.view());
  return p;
}

LrProduct product_dense_lr(Span2D<const double> a, const LrView& b) {
  // A B^T = (A Vb) Ub^T: rank kb.
  const std::size_t kb = b.rank();
  lr_flops(obs::KernelOp::LrGemm, obs::gemm_flops(a.rows(), kb, b.v.rows()));
  LrProduct p;
  p.u.resize(a.rows(), kb);
  if (kb > 0)
    la::gemm<double>(Trans::NoTrans, Trans::NoTrans, 1.0, a, b.v, 0.0, p.u.view());
  p.v.resize(b.u.rows(), kb);
  for (std::size_t j = 0; j < kb; ++j)
    for (std::size_t i = 0; i < b.u.rows(); ++i) p.v(i, j) = b.u(i, j);
  return p;
}

LrProduct product_dense_dense(Span2D<const double> a, Span2D<const double> b, double tol) {
  lr_flops(obs::KernelOp::LrGemm, obs::gemm_flops(a.rows(), b.rows(), a.cols()));
  la::Matrix<double> full(a.rows(), b.rows());
  la::gemm<double>(Trans::NoTrans, Trans::Trans, 1.0, a, b, 0.0, full.view());
  Compressed c = compress_svd(full.cview(), tol);
  return LrProduct{std::move(c.u), std::move(c.v)};
}

void lr_axpy_rounded(double alpha, const LrProduct& p, la::Matrix<double>& uc,
                     la::Matrix<double>& vc, double abs_tol) {
  const std::size_t kc = uc.cols();
  const std::size_t kp = p.u.cols();
  GSX_REQUIRE(uc.rows() == p.u.rows() && vc.rows() == p.v.rows(),
              "lr_axpy_rounded: shape mismatch");
  if (kp == 0) return;
  // Rounding cost estimate: recompress's two QRs at the concatenated rank,
  // thin on the m x kr factor and column-pivoted on the n x kr one, each
  // ~4 rows kr^2 with its Q formed.
  const std::uint64_t kr = kc + kp;
  lr_flops(obs::KernelOp::Compress, 4 * (uc.rows() + vc.rows()) * kr * kr);
  la::Matrix<double> u2(uc.rows(), kc + kp);
  la::Matrix<double> v2(vc.rows(), kc + kp);
  for (std::size_t j = 0; j < kc; ++j) {
    for (std::size_t i = 0; i < uc.rows(); ++i) u2(i, j) = uc(i, j);
    for (std::size_t i = 0; i < vc.rows(); ++i) v2(i, j) = vc(i, j);
  }
  for (std::size_t j = 0; j < kp; ++j) {
    for (std::size_t i = 0; i < uc.rows(); ++i) u2(i, kc + j) = alpha * p.u(i, j);
    for (std::size_t i = 0; i < vc.rows(); ++i) v2(i, kc + j) = p.v(i, j);
  }
  recompress(u2, v2, abs_tol);
  uc = std::move(u2);
  vc = std::move(v2);
}

void lr_gemv(double alpha, const LrView& a, const double* x, double* y) {
  const std::size_t k = a.rank();
  if (k == 0) return;
  lr_flops(obs::KernelOp::Krige, 2 * k * (a.u.rows() + a.v.rows()));
  std::vector<double> t(k, 0.0);
  la::gemv<double>(Trans::Trans, 1.0, a.v, x, 0.0, t.data());
  la::gemv<double>(Trans::NoTrans, alpha, a.u, t.data(), 1.0, y);
}

void lr_gemv_trans(double alpha, const LrView& a, const double* x, double* y) {
  const std::size_t k = a.rank();
  if (k == 0) return;
  lr_flops(obs::KernelOp::Krige, 2 * k * (a.u.rows() + a.v.rows()));
  std::vector<double> t(k, 0.0);
  la::gemv<double>(Trans::Trans, 1.0, a.u, x, 0.0, t.data());
  la::gemv<double>(Trans::NoTrans, alpha, a.v, t.data(), 1.0, y);
}

}  // namespace gsx::tlr
