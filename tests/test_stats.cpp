// Summary statistics, OLS and distance helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mathx/distance.hpp"
#include "mathx/stats.hpp"

namespace gsx::mathx {
namespace {

TEST(Stats, MeanAndVariance) {
  const std::vector<double> x = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_NEAR(variance(x), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(Stats, QuantileType7MatchesR) {
  // R: quantile(c(1,2,3,4), c(.25,.5,.75)) -> 1.75, 2.50, 3.25.
  const std::vector<double> x = {4.0, 1.0, 3.0, 2.0};  // unsorted input
  EXPECT_DOUBLE_EQ(quantile(x, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(x, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(x, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 4.0);
}

TEST(Stats, MedianSingleElement) {
  const std::vector<double> x = {42.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.99), 42.0);
}

TEST(Stats, BoxplotSummaryOrdering) {
  Rng rng(1);
  std::vector<double> x(501);
  for (auto& v : x) v = rng.normal();
  const BoxplotSummary b = boxplot_summary(x);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
  EXPECT_EQ(b.n, 501u);
  EXPECT_NEAR(b.median, 0.0, 0.15);
  EXPECT_NEAR(b.q3 - b.q1, 1.349, 0.2);  // IQR of the standard normal
}

TEST(Stats, Mspe) {
  const std::vector<double> pred = {1.0, 2.0, 3.0};
  const std::vector<double> truth = {1.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(mspe(pred, truth), (0.0 + 4.0 + 1.0) / 3.0);
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), InvalidArgument);
  EXPECT_THROW(quantile(empty, 0.5), InvalidArgument);
  EXPECT_THROW(boxplot_summary(empty), InvalidArgument);
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW(mspe(one, two), InvalidArgument);
}

TEST(Ols, RecoversExactLinearModel) {
  Rng rng(9);
  const std::size_t n = 200;
  std::vector<double> x(2 * n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    x[n + i] = rng.uniform();
    y[i] = 3.0 - 2.0 * x[i] + 0.5 * x[n + i];
  }
  const auto beta = ols_fit(y, x, n, 2);
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[0], 3.0, 1e-10);
  EXPECT_NEAR(beta[1], -2.0, 1e-10);
  EXPECT_NEAR(beta[2], 0.5, 1e-10);

  const auto yhat = ols_predict(beta, x, n, 2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(yhat[i], y[i], 1e-10);
}

TEST(Ols, NoisyFitIsUnbiased) {
  Rng rng(10);
  const std::size_t n = 5000;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1.0, 1.0);
    y[i] = 1.0 + 2.0 * x[i] + 0.1 * rng.normal();
  }
  const auto beta = ols_fit(y, x, n, 1);
  EXPECT_NEAR(beta[0], 1.0, 0.01);
  EXPECT_NEAR(beta[1], 2.0, 0.02);
}

TEST(Ols, RejectsDegenerateInputs) {
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<double> x = {1.0, 1.0, 2.0, 2.0};  // n=2, p=2: n <= p
  EXPECT_THROW(ols_fit(y, x, 2, 2), InvalidArgument);
}

TEST(Distance, Euclidean) {
  EXPECT_DOUBLE_EQ(euclidean2d(0, 0, 3, 4), 5.0);
  EXPECT_DOUBLE_EQ(euclidean2d(1, 1, 1, 1), 0.0);
}

}  // namespace
}  // namespace gsx::mathx
