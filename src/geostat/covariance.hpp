// Parametric covariance models: the statistical heart of the MLE.
//
// Space:      Matérn family (paper Section IV-A.3) and powered exponential.
// Space-time: the non-separable Gneiting model of Eq. (6):
//   C(h, u) = sigma^2 / psi(u) * M_nu( ||h|| / (a_s * psi(u)^{beta/2}) ),
//   psi(u)  = a_t * |u|^{2*alpha} + 1,
// where M_nu is the Matérn correlation, a_s/a_t space/time ranges,
// nu spatial smoothness, alpha in (0, 1] temporal smoothness, and
// beta in [0, 1] the space-time interaction (beta = 0 <=> separable).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/span2d.hpp"
#include "geostat/locations.hpp"
#include "mathx/bessel.hpp"

namespace gsx::geostat {

/// The Matérn correlation M_nu(d) = 2^{1-nu}/Gamma(nu) * d^nu * K_nu(d),
/// M_nu(0) = 1, for one smoothness at many distances. Closed forms serve
/// nu = 0.5, 1.5, 2.5. Any other nu takes exp(d) K_nu(d) from a
/// mathx::BesselKFit built here once: Temme's series below d = 2, the
/// Chebyshev fit from 2 to 700 (relative error within 1e-15 of K_nu up to
/// nu = 5; see mathx/bessel.hpp), and 0 beyond 700, where M_nu underflows.
/// Construction costs about 0.15 ms off the closed forms (the fit), so
/// build one per smoothness, not per entry.
class MaternCorrelation {
 public:
  /// Throws InvalidArgument unless nu is positive and finite.
  explicit MaternCorrelation(double nu);

  /// M_nu(d); throws InvalidArgument unless d >= 0 (NaN included).
  [[nodiscard]] double operator()(double d) const;

  /// out[i] = (*this)(d[i]) for every i, bit for bit. The Bessel K of the
  /// whole span goes through the fit's span entry, which evaluates several
  /// entries per vector register. Throws InvalidArgument if the spans
  /// differ in length or any d[i] is negative or NaN.
  void eval(std::span<const double> d, std::span<double> out) const;

  [[nodiscard]] double nu() const noexcept { return nu_; }

 private:
  /// M_nu(d) from exp(d) K_nu(d), for 0 < d <= 700 off the closed forms.
  [[nodiscard]] double from_k_scaled(double d, double k_scaled) const;

  double nu_;
  double log_norm_ = 0.0;  ///< (1 - nu) log 2 - lgamma(nu)
  mathx::BesselKFit fit_;  ///< unused at the closed-form orders
};

/// A parametric covariance function over locations, exposing its parameter
/// vector for the optimizer. Implementations are cheap value types behind
/// clone(); the MLE perturbs parameters via set_params() between likelihood
/// evaluations.
class CovarianceModel {
 public:
  virtual ~CovarianceModel() = default;

  /// Covariance between two locations (including nugget when a == b is
  /// indicated by zero distance in space and time).
  [[nodiscard]] virtual double operator()(const Location& a, const Location& b) const = 0;

  /// out(i, j) = (*this)(rows[i], cols[j]) for every i, j: the block of the
  /// covariance matrix between two location sets, in column-major order.
  /// The default loops over operator(); an override must give the same
  /// bits. Throws InvalidArgument if out's shape differs from the sets'.
  virtual void fill(std::span<const Location> rows, std::span<const Location> cols,
                    Span2D<double> out) const;

  [[nodiscard]] virtual std::size_t num_params() const = 0;
  [[nodiscard]] virtual std::vector<double> params() const = 0;
  virtual void set_params(std::span<const double> theta) = 0;
  [[nodiscard]] virtual std::vector<double> lower_bounds() const = 0;
  [[nodiscard]] virtual std::vector<double> upper_bounds() const = 0;
  [[nodiscard]] virtual std::vector<std::string> param_names() const = 0;
  [[nodiscard]] virtual std::unique_ptr<CovarianceModel> clone() const = 0;
};

/// Isotropic Matérn in the plane: theta = (variance, range, smoothness),
/// matching Table I's (theta_0, theta_1, theta_2). Optional fixed nugget
/// (measurement-error variance) is not estimated.
class MaternCovariance final : public CovarianceModel {
 public:
  MaternCovariance(double variance, double range, double smoothness, double nugget = 0.0);

  double operator()(const Location& a, const Location& b) const override;
  /// One column of distances at a time, through MaternCorrelation::eval.
  void fill(std::span<const Location> rows, std::span<const Location> cols,
            Span2D<double> out) const override;
  std::size_t num_params() const override { return 3; }
  std::vector<double> params() const override;
  void set_params(std::span<const double> theta) override;
  std::vector<double> lower_bounds() const override;
  std::vector<double> upper_bounds() const override;
  std::vector<std::string> param_names() const override;
  std::unique_ptr<CovarianceModel> clone() const override;

  [[nodiscard]] double nugget() const noexcept { return nugget_; }

 private:
  double variance_;
  double range_;
  MaternCorrelation corr_;
  double nugget_;
};

/// Powered exponential: C(d) = variance * exp(-(d/range)^power), power in
/// (0, 2]. A cheaper spatial alternative exercised by tests and ablations.
class PoweredExponentialCovariance final : public CovarianceModel {
 public:
  PoweredExponentialCovariance(double variance, double range, double power,
                               double nugget = 0.0);

  double operator()(const Location& a, const Location& b) const override;
  std::size_t num_params() const override { return 3; }
  std::vector<double> params() const override;
  void set_params(std::span<const double> theta) override;
  std::vector<double> lower_bounds() const override;
  std::vector<double> upper_bounds() const override;
  std::vector<std::string> param_names() const override;
  std::unique_ptr<CovarianceModel> clone() const override;

 private:
  double variance_;
  double range_;
  double power_;
  double nugget_;
};

/// Non-separable Gneiting space-time model (Eq. 6). theta = (variance,
/// range_space, smooth_space, range_time, smooth_time, beta), matching
/// Table II's (theta_0 .. theta_5).
class GneitingCovariance final : public CovarianceModel {
 public:
  GneitingCovariance(double variance, double range_s, double smooth_s, double range_t,
                     double smooth_t, double beta, double nugget = 0.0);

  double operator()(const Location& a, const Location& b) const override;
  std::size_t num_params() const override { return 6; }
  std::vector<double> params() const override;
  void set_params(std::span<const double> theta) override;
  std::vector<double> lower_bounds() const override;
  std::vector<double> upper_bounds() const override;
  std::vector<std::string> param_names() const override;
  std::unique_ptr<CovarianceModel> clone() const override;

 private:
  double variance_;
  double range_s_;
  MaternCorrelation corr_s_;  ///< spatial smoothness nu
  double range_t_;
  double smooth_t_;  ///< alpha in (0, 1]
  double beta_;      ///< space-time interaction in [0, 1]
  double nugget_;
};

}  // namespace gsx::geostat
