// Summary statistics used by the accuracy experiments (boxplots, MSPE).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gsx::mathx {

/// Five-number summary plus mean: the data behind one boxplot in Fig. 6.
struct BoxplotSummary {
  double min = 0.0;
  double q1 = 0.0;      ///< first quartile
  double median = 0.0;
  double q3 = 0.0;      ///< third quartile
  double max = 0.0;
  double mean = 0.0;
  std::size_t n = 0;
};

/// Linear-interpolation quantile (type 7, the R default) of unsorted data.
double quantile(std::span<const double> data, double p);

double mean(std::span<const double> data);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double variance(std::span<const double> data);

/// Five-number summary + mean of unsorted data.
BoxplotSummary boxplot_summary(std::span<const double> data);

/// Mean squared prediction error between predictions and truth.
double mspe(std::span<const double> predicted, std::span<const double> truth);

/// Ordinary least squares fit y ~ 1 + X (X column-major n x p).
/// Returns p+1 coefficients (intercept first). Used by the detrending
/// pipeline the paper applies to the evapotranspiration dataset.
std::vector<double> ols_fit(std::span<const double> y, std::span<const double> x_colmajor,
                            std::size_t n, std::size_t p);

/// Evaluate an OLS fit at rows of X (column-major n x p).
std::vector<double> ols_predict(std::span<const double> coeffs,
                                std::span<const double> x_colmajor, std::size_t n,
                                std::size_t p);

}  // namespace gsx::mathx
