#include "geostat/likelihood.hpp"

#include <cmath>

#include "common/error.hpp"
#include "geostat/assemble.hpp"
#include "la/blas.hpp"
#include "la/lapack.hpp"
#include "obs/flops.hpp"
#include "obs/trace.hpp"

namespace gsx::geostat {

namespace {
constexpr double kLog2Pi = 1.8378770664093454835606594728112;
}

LoglikValue loglik_from_cholesky(const la::Matrix<double>& chol, std::span<const double> z) {
  const std::size_t n = chol.rows();
  GSX_REQUIRE(chol.cols() == n && z.size() == n, "loglik_from_cholesky: size mismatch");
  const obs::ScopedPhase phase(obs::Phase::Solve);
  obs::add_flops(obs::KernelOp::Solve, Precision::FP64, obs::trsm_flops(1, n));
  LoglikValue out;
  out.logdet = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lii = chol(i, i);
    if (!(lii > 0.0)) return out;  // ok = false
    out.logdet += std::log(lii);
  }
  out.logdet *= 2.0;

  // Solve L y = z, quadratic = ||y||^2.
  std::vector<double> y(z.begin(), z.end());
  la::ref::trsm_left(chol.cview(), Span2D<double>(y.data(), n, 1));
  out.quadratic = 0.0;
  for (double v : y) out.quadratic += v * v;
  out.loglik = -0.5 * (static_cast<double>(n) * kLog2Pi + out.logdet + out.quadratic);
  out.ok = true;
  return out;
}

LoglikValue dense_loglik(const CovarianceModel& model, std::span<const Location> locs,
                         std::span<const double> z) {
  GSX_REQUIRE(locs.size() == z.size(), "dense_loglik: size mismatch");
  la::Matrix<double> sigma = covariance_matrix(model, locs);
  obs::add_flops(obs::KernelOp::Potrf, Precision::FP64, obs::potrf_flops(sigma.rows()));
  const int info = [&] {
    const obs::ScopedPhase phase(obs::Phase::Factorize);
    return la::potrf(sigma.view());
  }();
  if (info != 0) return LoglikValue{};  // non-SPD: ok = false
  return loglik_from_cholesky(sigma, z);
}

}  // namespace gsx::geostat
