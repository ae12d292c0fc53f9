// Kriging prediction and uncertainty (Eqs. 4-5).
#include <gtest/gtest.h>

#include <cmath>

#include "geostat/covariance.hpp"
#include "geostat/field.hpp"
#include "geostat/prediction.hpp"
#include "mathx/stats.hpp"
#include "test_utils.hpp"

namespace gsx::geostat {
namespace {

using gsx::test::krige;

TEST(Krige, ExactInterpolationAtTrainingPoints) {
  // With zero nugget, kriging reproduces observed values exactly, with zero
  // predictive variance.
  Rng rng(1);
  const auto locs = perturbed_grid_locations(50, rng);
  const MaternCovariance model(1.0, 0.2, 1.5, 0.0);
  const auto z = simulate_grf(model, locs, rng);

  const std::vector<Location> test(locs.begin(), locs.begin() + 10);
  const KrigingResult r = krige(model, locs, z, test, true);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(r.mean[i], z[i], 1e-6);
    EXPECT_NEAR(r.variance[i], 0.0, 1e-6);
  }
}

TEST(Krige, VarianceBoundsAndDistanceGrowth) {
  Rng rng(2);
  const auto locs = perturbed_grid_locations(80, rng);
  const MaternCovariance model(2.0, 0.1, 0.5, 0.0);
  const auto z = simulate_grf(model, locs, rng);

  // Test points at growing distance from the data cloud.
  std::vector<Location> test;
  for (double off : {0.0, 0.5, 1.5, 4.0}) test.push_back({1.0 + off, 0.5, 0.0});
  const KrigingResult r = krige(model, locs, z, test, true);
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_GE(r.variance[i], -1e-9);
    EXPECT_LE(r.variance[i], 2.0 + 1e-9) << "variance cannot exceed the prior";
    if (i > 0) {
      EXPECT_GE(r.variance[i], r.variance[i - 1] - 1e-9);
    }
  }
  // Far from all data, the prediction reverts to the prior mean (0) and the
  // variance to sigma^2.
  EXPECT_NEAR(r.mean.back(), 0.0, 0.05);
  EXPECT_NEAR(r.variance.back(), 2.0, 0.01);
}

TEST(Krige, BetterThanZeroPredictorOnHeldOut) {
  Rng rng(3);
  auto locs = perturbed_grid_locations(220, rng);
  const MaternCovariance model(1.0, 0.15, 1.0, 1e-6);
  const auto z = simulate_grf(model, locs, rng);

  const std::size_t ntrain = 180;
  const std::span<const Location> train(locs.data(), ntrain);
  const std::span<const Location> test(locs.data() + ntrain, locs.size() - ntrain);
  const std::span<const double> ztrain(z.data(), ntrain);
  const std::vector<double> ztest(z.begin() + ntrain, z.end());

  const KrigingResult r = krige(model, train, ztrain, test, true);
  const double err = mathx::mspe(r.mean, ztest);
  double zero_mspe = 0.0;
  for (double v : ztest) zero_mspe += v * v;
  zero_mspe /= static_cast<double>(ztest.size());
  EXPECT_LT(err, 0.5 * zero_mspe) << "kriging must beat the trivial zero predictor";
}

TEST(Krige, PredictiveIntervalsCalibrated) {
  // ~95% of held-out truths inside mean +/- 1.96 sd.
  Rng rng(4);
  auto locs = perturbed_grid_locations(300, rng);
  const MaternCovariance model(1.0, 0.12, 0.8, 1e-6);
  const auto z = simulate_grf(model, locs, rng);

  const std::size_t ntrain = 250;
  const std::span<const Location> train(locs.data(), ntrain);
  const std::span<const Location> test(locs.data() + ntrain, locs.size() - ntrain);
  const std::span<const double> ztrain(z.data(), ntrain);

  const KrigingResult r = krige(model, train, ztrain, test, true);
  std::size_t inside = 0;
  for (std::size_t i = 0; i < r.mean.size(); ++i) {
    const double sd = std::sqrt(std::max(r.variance[i], 0.0));
    if (std::fabs(z[ntrain + i] - r.mean[i]) <= 1.96 * sd + 1e-9) ++inside;
  }
  const double coverage = static_cast<double>(inside) / static_cast<double>(r.mean.size());
  EXPECT_GT(coverage, 0.82);
}

TEST(Krige, WithoutVarianceSkipsIt) {
  Rng rng(5);
  const auto locs = perturbed_grid_locations(40, rng);
  const MaternCovariance model(1.0, 0.2, 0.5, 1e-6);
  const auto z = simulate_grf(model, locs, rng);
  const std::vector<Location> test = {{0.5, 0.5, 0}};
  const KrigingResult r = krige(model, locs, z, test, false);
  EXPECT_EQ(r.mean.size(), 1u);
  EXPECT_TRUE(r.variance.empty());
}

TEST(Krige, SingularTrainingCovarianceThrows) {
  const std::vector<Location> locs = {{0.5, 0.5, 0}, {0.5, 0.5, 0}};
  const MaternCovariance model(1.0, 0.1, 0.5, 0.0);
  const std::vector<double> z = {1.0, 1.0};
  const std::vector<Location> test = {{0.2, 0.2, 0}};
  EXPECT_THROW(krige(model, locs, z, test, true), NumericalError);
}

TEST(Krige, SpaceTimePredictionUsesTemporalNeighbours) {
  // Predict month m at a location from the same location's other months:
  // with strong temporal correlation the prediction must beat the prior.
  Rng rng(6);
  const auto spatial = perturbed_grid_locations(36, rng);
  auto locs = replicate_in_time(spatial, 5, 1.0);
  const GneitingCovariance model(1.0, 0.2, 0.8, 0.05, 0.9, 0.3, 1e-6);
  const auto z = simulate_grf(model, locs, rng);

  // Hold out the middle month entirely.
  std::vector<Location> train_locs, test_locs;
  std::vector<double> ztrain, ztest;
  for (std::size_t i = 0; i < locs.size(); ++i) {
    if (locs[i].t == 2.0) {
      test_locs.push_back(locs[i]);
      ztest.push_back(z[i]);
    } else {
      train_locs.push_back(locs[i]);
      ztrain.push_back(z[i]);
    }
  }
  const KrigingResult r = krige(model, train_locs, ztrain, test_locs, false);
  const double err = mathx::mspe(r.mean, ztest);
  double zero_mspe = 0.0;
  for (double v : ztest) zero_mspe += v * v;
  zero_mspe /= static_cast<double>(ztest.size());
  EXPECT_LT(err, zero_mspe);
}

}  // namespace
}  // namespace gsx::geostat
