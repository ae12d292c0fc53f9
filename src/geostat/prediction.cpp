#include "geostat/prediction.hpp"

#include <string>

#include "common/error.hpp"
#include "geostat/assemble.hpp"
#include "la/blas.hpp"
#include "la/lapack.hpp"
#include "obs/flops.hpp"
#include "obs/trace.hpp"

namespace gsx::geostat {

KrigingResult krige_with_cholesky(const CovarianceModel& model,
                                  const la::Matrix<double>& chol,
                                  std::span<const Location> train_locs,
                                  std::span<const double> z_train,
                                  std::span<const Location> test_locs,
                                  bool with_variance) {
  const std::size_t n = train_locs.size();
  const std::size_t m = test_locs.size();
  GSX_REQUIRE(z_train.size() == n, "krige: training data size mismatch");
  GSX_REQUIRE(chol.rows() == n && chol.cols() == n, "krige: Cholesky factor size mismatch");
  GSX_REQUIRE(m > 0, "krige: no test locations");

  // W = L^{-1} Sigma_nm  (n x m), y = L^{-1} Z_n.
  la::Matrix<double> w = cross_covariance(model, train_locs, test_locs);
  const obs::ScopedPhase phase("krige");
  obs::add_flops(obs::KernelOp::Krige, Precision::FP64,
                 obs::trsm_flops(m, n) + obs::trsm_flops(1, n) +
                     obs::gemm_flops(m, 1, n));
  la::trsm_left(chol.cview(), w.view());
  std::vector<double> y(z_train.begin(), z_train.end());
  la::ref::trsm_left(chol.cview(), Span2D<double>(y.data(), n, 1));

  KrigingResult out;
  out.mean.assign(m, 0.0);
  // Z_m = Sigma_mn Sigma_nn^{-1} Z_n = W^T y.
  la::gemv<double>(la::Trans::Trans, 1.0, w.cview(), y.data(), 0.0, out.mean.data());

  if (with_variance) {
    out.variance.assign(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      const double smm = model(test_locs[j], test_locs[j]);
      double wnorm = 0.0;
      for (std::size_t i = 0; i < n; ++i) wnorm += w(i, j) * w(i, j);
      out.variance[j] = smm - wnorm;
    }
  }
  return out;
}

KrigingResult krige(const CovarianceModel& model, std::span<const Location> train_locs,
                    std::span<const double> z_train, std::span<const Location> test_locs,
                    bool with_variance) {
  la::Matrix<double> sigma = covariance_matrix(model, train_locs);
  obs::add_flops(obs::KernelOp::Potrf, Precision::FP64, obs::potrf_flops(sigma.rows()));
  const int info = [&] {
    const obs::ScopedPhase phase("factorize");
    return la::potrf(sigma.view());
  }();
  if (info != 0)
    throw NumericalError("krige: Sigma_nn not positive definite at pivot " +
                         std::to_string(info));
  return krige_with_cholesky(model, sigma, train_locs, z_train, test_locs, with_variance);
}

}  // namespace gsx::geostat
