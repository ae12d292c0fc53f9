#include "mathx/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gsx::mathx {

double quantile(std::span<const double> data, double p) {
  GSX_REQUIRE(!data.empty(), "quantile: empty data");
  GSX_REQUIRE(p >= 0.0 && p <= 1.0, "quantile: p must be in [0,1]");
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double mean(std::span<const double> data) {
  GSX_REQUIRE(!data.empty(), "mean: empty data");
  double s = 0.0;
  for (double v : data) s += v;
  return s / static_cast<double>(data.size());
}

double variance(std::span<const double> data) {
  if (data.size() < 2) return 0.0;
  const double m = mean(data);
  double s = 0.0;
  for (double v : data) s += (v - m) * (v - m);
  return s / static_cast<double>(data.size() - 1);
}

BoxplotSummary boxplot_summary(std::span<const double> data) {
  GSX_REQUIRE(!data.empty(), "boxplot_summary: empty data");
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  const std::span<const double> s(sorted);
  BoxplotSummary b;
  b.min = sorted.front();
  b.max = sorted.back();
  b.q1 = quantile(s, 0.25);
  b.median = quantile(s, 0.5);
  b.q3 = quantile(s, 0.75);
  b.mean = mean(s);
  b.n = sorted.size();
  return b;
}

double mspe(std::span<const double> predicted, std::span<const double> truth) {
  GSX_REQUIRE(predicted.size() == truth.size() && !truth.empty(),
              "mspe: size mismatch or empty");
  double s = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = predicted[i] - truth[i];
    s += d * d;
  }
  return s / static_cast<double>(truth.size());
}

std::vector<double> ols_fit(std::span<const double> y, std::span<const double> x_colmajor,
                            std::size_t n, std::size_t p) {
  GSX_REQUIRE(y.size() == n, "ols_fit: y size mismatch");
  GSX_REQUIRE(x_colmajor.size() == n * p, "ols_fit: X size mismatch");
  GSX_REQUIRE(n > p, "ols_fit: underdetermined system");

  // Build the (p+1) x (p+1) normal equations with an intercept column.
  const std::size_t q = p + 1;
  std::vector<double> ata(q * q, 0.0);  // column-major
  std::vector<double> aty(q, 0.0);
  auto col = [&](std::size_t j, std::size_t i) -> double {
    return j == 0 ? 1.0 : x_colmajor[i + (j - 1) * n];
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < q; ++a) {
      const double va = col(a, i);
      aty[a] += va * y[i];
      for (std::size_t b = a; b < q; ++b) ata[a + b * q] += va * col(b, i);
    }
  }
  for (std::size_t a = 0; a < q; ++a)
    for (std::size_t b = 0; b < a; ++b) ata[a + b * q] = ata[b + a * q];

  // Cholesky solve of the small SPD system.
  for (std::size_t k = 0; k < q; ++k) {
    double diag = ata[k + k * q];
    for (std::size_t m = 0; m < k; ++m) diag -= ata[k + m * q] * ata[k + m * q];
    GSX_REQUIRE(diag > 0.0, "ols_fit: rank-deficient design matrix");
    const double lkk = std::sqrt(diag);
    ata[k + k * q] = lkk;
    for (std::size_t i2 = k + 1; i2 < q; ++i2) {
      double v = ata[i2 + k * q];
      for (std::size_t m = 0; m < k; ++m) v -= ata[i2 + m * q] * ata[k + m * q];
      ata[i2 + k * q] = v / lkk;
    }
  }
  std::vector<double> beta = aty;
  for (std::size_t i = 0; i < q; ++i) {  // forward
    for (std::size_t m = 0; m < i; ++m) beta[i] -= ata[i + m * q] * beta[m];
    beta[i] /= ata[i + i * q];
  }
  for (std::size_t ii = q; ii-- > 0;) {  // backward with L^T
    for (std::size_t m = ii + 1; m < q; ++m) beta[ii] -= ata[m + ii * q] * beta[m];
    beta[ii] /= ata[ii + ii * q];
  }
  return beta;
}

std::vector<double> ols_predict(std::span<const double> coeffs,
                                std::span<const double> x_colmajor, std::size_t n,
                                std::size_t p) {
  GSX_REQUIRE(coeffs.size() == p + 1, "ols_predict: coefficient count mismatch");
  GSX_REQUIRE(x_colmajor.size() == n * p, "ols_predict: X size mismatch");
  std::vector<double> yhat(n, coeffs[0]);
  for (std::size_t j = 0; j < p; ++j)
    for (std::size_t i = 0; i < n; ++i) yhat[i] += coeffs[j + 1] * x_colmajor[i + j * n];
  return yhat;
}

}  // namespace gsx::mathx
