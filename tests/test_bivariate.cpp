// Parsimonious bivariate Matérn: validity, SPD, cross-correlation, co-kriging.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "geostat/assemble.hpp"
#include "geostat/bivariate.hpp"
#include "geostat/field.hpp"
#include "geostat/prediction.hpp"
#include "la/lapack.hpp"
#include "mathx/stats.hpp"

namespace gsx::geostat {
namespace {

TEST(BivariateLocations, TagsComponents) {
  Rng rng(1);
  const auto spatial = perturbed_grid_locations(9, rng);
  const auto biv = make_bivariate_locations(spatial);
  ASSERT_EQ(biv.size(), 18u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(biv[i].t, 0.0);
    EXPECT_EQ(biv[9 + i].t, 1.0);
    EXPECT_EQ(biv[i].x, biv[9 + i].x);
  }
}

TEST(BivariateMatern, MaxRhoMatchesKnownCases) {
  // Equal smoothness: bound is 1 (full correlation allowed).
  EXPECT_NEAR(BivariateMaternCovariance::max_rho(0.5, 0.5), 1.0, 1e-12);
  EXPECT_NEAR(BivariateMaternCovariance::max_rho(1.5, 1.5), 1.0, 1e-12);
  // Unequal smoothness tightens it below 1.
  const double b = BivariateMaternCovariance::max_rho(0.5, 2.5);
  EXPECT_LT(b, 1.0);
  EXPECT_GT(b, 0.0);
  // Symmetric in the arguments.
  EXPECT_NEAR(b, BivariateMaternCovariance::max_rho(2.5, 0.5), 1e-12);
}

TEST(BivariateMatern, RejectsInvalidRho) {
  EXPECT_THROW(BivariateMaternCovariance(1, 1, 0.1, 0.5, 2.5, 0.95), InvalidArgument);
  EXPECT_NO_THROW(BivariateMaternCovariance(1, 1, 0.1, 0.5, 2.5, 0.3));
  BivariateMaternCovariance m(1, 1, 0.1, 0.5, 0.5, 0.5);
  const std::vector<double> bad = {1, 1, 0.1, 0.5, 2.5, 0.95};
  EXPECT_THROW(m.set_params(bad), InvalidArgument);
}

TEST(BivariateMatern, MarginalAndCrossValues) {
  const BivariateMaternCovariance m(2.0, 0.5, 0.2, 0.5, 1.5, 0.6, 0.1);
  const Location a0{0, 0, 0}, b0{0.2, 0, 0};
  Location a1 = a0, b1 = b0;
  a1.t = 1.0;
  b1.t = 1.0;
  // Component marginals at distance 0.2 (scaled lag 1).
  EXPECT_NEAR(m(a0, b0), 2.0 * std::exp(-1.0), 1e-12);
  EXPECT_NEAR(m(a1, b1), 0.5 * (1.0 + 1.0) * std::exp(-1.0), 1e-12);
  // Cross-covariance: nu12 = 1, rho sqrt(var1 var2).
  EXPECT_NEAR(m(a0, b1), 0.6 * std::sqrt(1.0) * MaternCorrelation(1.0)(1.0), 1e-12);
  // Nugget only on exact coincidence of the same component.
  EXPECT_NEAR(m(a0, a0), 2.1, 1e-12);
  EXPECT_NEAR(m(a0, a1), 0.6 * std::sqrt(1.0), 1e-12) << "no nugget across components";
  // Symmetry.
  EXPECT_DOUBLE_EQ(m(a0, b1), m(b1, a0));
}

TEST(BivariateMatern, RejectsComponentTagsOtherThanZeroOrOne) {
  const BivariateMaternCovariance m(1.0, 1.0, 0.2, 0.8, 1.3, 0.5);
  const Location good{0.1, 0.2, 1.0};
  for (double tag : {0.7, 2.0, std::numeric_limits<double>::quiet_NaN()}) {
    const Location bad{0.3, 0.4, tag};
    EXPECT_THROW((void)m(bad, good), InvalidArgument) << "t = " << tag;
    EXPECT_THROW((void)m(good, bad), InvalidArgument) << "t = " << tag;
  }
}

TEST(BivariateMatern, SetParamsRebuildsEveryCorrelation) {
  BivariateMaternCovariance m(1.0, 1.0, 0.2, 0.3, 0.3, 0.5);
  const std::vector<double> theta = {2.0, 0.5, 0.25, 0.8, 1.3, 0.4};
  m.set_params(theta);
  EXPECT_EQ(m.params(), theta);
  // Distance 0.5 at range 0.25: scaled lag 2, where the Bessel fit starts.
  const Location a0{0.0, 0.0, 0.0}, b0{0.5, 0.0, 0.0};
  Location a1 = a0, b1 = b0;
  a1.t = 1.0;
  b1.t = 1.0;
  EXPECT_EQ(m(a0, b0), 2.0 * MaternCorrelation(0.8)(2.0));
  EXPECT_EQ(m(a1, b1), 0.5 * MaternCorrelation(1.3)(2.0));
  EXPECT_EQ(m(a0, b1), 0.4 * std::sqrt(2.0 * 0.5) * MaternCorrelation(0.5 * (0.8 + 1.3))(2.0));
}

class BivariateSpd : public ::testing::TestWithParam<double> {};

TEST_P(BivariateSpd, CovarianceMatrixFactorizes) {
  const double rho = GetParam();
  Rng rng(7);
  const auto spatial = perturbed_grid_locations(40, rng);
  const auto locs = make_bivariate_locations(spatial);
  const BivariateMaternCovariance m(1.0, 2.0, 0.15, 0.5, 1.5, rho, 1e-8);
  la::Matrix<double> sigma = covariance_matrix(m, locs);
  EXPECT_EQ(la::potrf(sigma.view()), 0) << "rho = " << rho;
}

INSTANTIATE_TEST_SUITE_P(RhoGrid, BivariateSpd, ::testing::Values(-0.8, -0.3, 0.0, 0.3, 0.8));

TEST(BivariateMatern, SimulatedFieldsShowCrossCorrelation) {
  Rng rng(9);
  const auto spatial = perturbed_grid_locations(64, rng);
  const auto locs = make_bivariate_locations(spatial);
  const BivariateMaternCovariance m(1.0, 1.0, 0.15, 1.0, 1.0, 0.8, 1e-8);
  const auto fields = simulate_grf_many(m, locs, rng, 150);

  // Empirical co-located cross-correlation ~ rho.
  double s12 = 0, s11 = 0, s22 = 0;
  for (const auto& f : fields) {
    for (std::size_t i = 0; i < 64; ++i) {
      s12 += f[i] * f[64 + i];
      s11 += f[i] * f[i];
      s22 += f[64 + i] * f[64 + i];
    }
  }
  EXPECT_NEAR(s12 / std::sqrt(s11 * s22), 0.8, 0.07);
}

TEST(BivariateMatern, CoKrigingBeatsIndependentKriging) {
  // Predict component 2 at held-out sites; borrowing strength from the
  // correlated component 1 must beat using component 2's own data alone.
  Rng rng(11);
  const auto spatial = perturbed_grid_locations(90, rng);
  const auto locs = make_bivariate_locations(spatial);
  const BivariateMaternCovariance m(1.0, 1.0, 0.2, 0.8, 0.8, 0.85, 1e-6);
  const auto z = simulate_grf(m, locs, rng);

  // Hold out component-2 values at the last 20 sites.
  const std::size_t n = 90, held = 20;
  std::vector<Location> train_locs, test_locs;
  std::vector<double> ztrain, ztest;
  std::vector<Location> c2_train;
  std::vector<double> c2_values;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const bool is_c2 = i >= n;
    const bool heldout = is_c2 && (i - n >= n - held);
    if (heldout) {
      test_locs.push_back(locs[i]);
      ztest.push_back(z[i]);
    } else {
      train_locs.push_back(locs[i]);
      ztrain.push_back(z[i]);
      if (is_c2) {
        c2_train.push_back(locs[i]);
        c2_values.push_back(z[i]);
      }
    }
  }
  const KrigingResult cokrige = krige(m, train_locs, ztrain, test_locs, false);
  // Independent kriging: component 2 only, with its marginal model.
  const MaternCovariance marginal(1.0, 0.2, 0.8, 1e-6);
  std::vector<Location> c2_train_flat = c2_train, test_flat = test_locs;
  for (auto& l : c2_train_flat) l.t = 0.0;  // strip tags for the scalar model
  for (auto& l : test_flat) l.t = 0.0;
  const KrigingResult solo = krige(marginal, c2_train_flat, c2_values, test_flat, false);

  const double err_co = mathx::mspe(cokrige.mean, ztest);
  const double err_solo = mathx::mspe(solo.mean, ztest);
  EXPECT_LT(err_co, err_solo) << "co-kriging must borrow strength (rho = 0.85)";
}

}  // namespace
}  // namespace gsx::geostat
