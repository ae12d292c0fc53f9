#include "geostat/field.hpp"

#include "common/error.hpp"
#include "geostat/assemble.hpp"
#include "la/blas.hpp"
#include "la/lapack.hpp"

namespace gsx::geostat {

namespace {

std::vector<double> draw_from_factor(const la::Matrix<double>& chol, Rng& rng) {
  const std::size_t n = chol.rows();
  std::vector<double> w(n), z(n, 0.0);
  for (auto& wi : w) wi = rng.normal();
  // z = L w over the lower triangle.
  for (std::size_t j = 0; j < n; ++j) {
    const double wj = w[j];
    if (wj == 0.0) continue;
    for (std::size_t i = j; i < n; ++i) z[i] += chol(i, j) * wj;
  }
  return z;
}

la::Matrix<double> factor_covariance(const CovarianceModel& model,
                                     std::span<const Location> locs) {
  la::Matrix<double> sigma = covariance_matrix(model, locs);
  const int info = la::potrf(sigma.view());
  if (info != 0)
    throw NumericalError("simulate_grf: covariance matrix not positive definite at pivot " +
                         std::to_string(info));
  return sigma;
}

}  // namespace

std::vector<double> simulate_grf(const CovarianceModel& model,
                                 std::span<const Location> locs, Rng& rng) {
  const la::Matrix<double> chol = factor_covariance(model, locs);
  return draw_from_factor(chol, rng);
}

std::vector<std::vector<double>> simulate_grf_many(const CovarianceModel& model,
                                                   std::span<const Location> locs, Rng& rng,
                                                   std::size_t count) {
  const la::Matrix<double> chol = factor_covariance(model, locs);
  std::vector<std::vector<double>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(draw_from_factor(chol, rng));
  return out;
}

}  // namespace gsx::geostat
