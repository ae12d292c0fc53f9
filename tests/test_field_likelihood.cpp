// GRF simulation statistics and the dense log-likelihood reference.
#include <gtest/gtest.h>

#include <cmath>

#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/field.hpp"
#include "geostat/likelihood.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx::geostat {
namespace {

TEST(SimulateGrf, EmpiricalMomentsMatchModel) {
  Rng rng(1);
  const auto locs = perturbed_grid_locations(64, rng);
  const MaternCovariance model(2.0, 0.1, 0.5, 0.0);
  // Average variance over replicates: Z(s) ~ N(0, sigma^2).
  const std::size_t reps = 300;
  const auto fields = simulate_grf_many(model, locs, rng, reps);
  double var = 0.0;
  for (const auto& f : fields)
    for (double v : f) var += v * v;
  var /= static_cast<double>(reps * locs.size());
  EXPECT_NEAR(var, 2.0, 0.15);
}

TEST(SimulateGrf, SpatialCorrelationDecays) {
  Rng rng(2);
  const auto locs = perturbed_grid_locations(100, rng);
  const MaternCovariance model(1.0, 0.1, 0.5, 0.0);
  const std::size_t reps = 400;
  const auto fields = simulate_grf_many(model, locs, rng, reps);

  // Empirical correlation of a near pair vs a far pair.
  auto corr = [&](std::size_t i, std::size_t j) {
    double sij = 0, sii = 0, sjj = 0;
    for (const auto& f : fields) {
      sij += f[i] * f[j];
      sii += f[i] * f[i];
      sjj += f[j] * f[j];
    }
    return sij / std::sqrt(sii * sjj);
  };
  // Find a close pair and a distant pair.
  std::size_t inear = 0, jnear = 1, ifar = 0, jfar = 1;
  double dmin = 1e9, dmax = -1.0;
  for (std::size_t i = 0; i < locs.size(); ++i)
    for (std::size_t j = i + 1; j < locs.size(); ++j) {
      const double d = std::hypot(locs[i].x - locs[j].x, locs[i].y - locs[j].y);
      if (d < dmin) { dmin = d; inear = i; jnear = j; }
      if (d > dmax) { dmax = d; ifar = i; jfar = j; }
    }
  EXPECT_GT(corr(inear, jnear), 0.3);
  EXPECT_LT(std::fabs(corr(ifar, jfar)), 0.25);
}

TEST(SimulateGrf, DeterministicGivenSeed) {
  Rng r1(42), r2(42);
  const auto locs = perturbed_grid_locations(32, r1);
  Rng r3(42);
  auto locs2 = perturbed_grid_locations(32, r3);
  const MaternCovariance model(1.0, 0.1, 0.5);
  Rng ra(7), rb(7);
  const auto za = simulate_grf(model, locs, ra);
  const auto zb = simulate_grf(model, locs, rb);
  EXPECT_EQ(za, zb);
}

TEST(DenseLoglik, MatchesHandComputedBivariate) {
  // Two locations, known covariance: check against the closed form.
  const std::vector<Location> locs = {{0, 0, 0}, {1, 0, 0}};
  const MaternCovariance model(1.0, 1.0, 0.5, 0.0);
  const double rho = std::exp(-1.0);  // correlation at distance 1
  const std::vector<double> z = {0.7, -0.4};

  const LoglikValue v = dense_loglik(model, locs, z);
  ASSERT_TRUE(v.ok);
  const double det = 1.0 - rho * rho;
  const double quad = (z[0] * z[0] - 2 * rho * z[0] * z[1] + z[1] * z[1]) / det;
  const double expect =
      -0.5 * (2.0 * std::log(2.0 * 3.141592653589793) + std::log(det) + quad);
  EXPECT_NEAR(v.loglik, expect, 1e-12);
  EXPECT_NEAR(v.logdet, std::log(det), 1e-12);
  EXPECT_NEAR(v.quadratic, quad, 1e-12);
}

TEST(DenseLoglik, TrueParametersBeatWrongOnes) {
  Rng rng(5);
  const auto locs = perturbed_grid_locations(150, rng);
  const MaternCovariance truth(1.0, 0.1, 0.5, 1e-6);
  // Average over replicates: truth must win in expectation.
  double margin_range = 0.0, margin_var = 0.0;
  const std::size_t reps = 10;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto z = simulate_grf(truth, locs, rng);
    const double l_true = dense_loglik(truth, locs, z).loglik;
    const MaternCovariance wrong_range(1.0, 0.4, 0.5, 1e-6);
    const MaternCovariance wrong_var(3.0, 0.1, 0.5, 1e-6);
    margin_range += l_true - dense_loglik(wrong_range, locs, z).loglik;
    margin_var += l_true - dense_loglik(wrong_var, locs, z).loglik;
  }
  EXPECT_GT(margin_range / reps, 0.0);
  EXPECT_GT(margin_var / reps, 0.0);
}

TEST(DenseLoglik, NonSpdReportsNotOk) {
  // Duplicate locations with zero nugget: exactly singular.
  const std::vector<Location> locs = {{0.5, 0.5, 0}, {0.5, 0.5, 0}};
  const MaternCovariance model(1.0, 0.1, 0.5, 0.0);
  const std::vector<double> z = {1.0, 1.0};
  const LoglikValue v = dense_loglik(model, locs, z);
  EXPECT_FALSE(v.ok);
}

TEST(LoglikFromCholesky, ConsistentWithDensePath) {
  Rng rng(6);
  const auto locs = perturbed_grid_locations(60, rng);
  const MaternCovariance model(1.3, 0.15, 0.7, 1e-6);
  std::vector<double> z(60);
  for (auto& v : z) v = rng.normal();

  la::Matrix<double> sigma = covariance_matrix(model, locs);
  ASSERT_EQ(la::potrf(sigma.view()), 0);
  const LoglikValue a = loglik_from_cholesky(sigma, z);
  const LoglikValue b = dense_loglik(model, locs, z);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_NEAR(a.loglik, b.loglik, 1e-10 * std::fabs(b.loglik));
}

}  // namespace
}  // namespace gsx::geostat
