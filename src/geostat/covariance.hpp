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

/// The Matérn correlation M_nu(x) = 2^{1-nu}/Gamma(nu) * x^nu * K_nu(x),
/// M_nu(0) = 1, for one smoothness at many scaled distances x = d / range.
///
/// Closed forms serve nu = 0.5, 1.5, 2.5: e^{-x} times 1, 1 + x or
/// 1 + x + x^2/3. Any other nu is
///   M = min(exp((log_norm + nu log x) - x) * K, 1),
///   log_norm = (1 - nu) log 2 - lgamma(nu),  K = e^x K_nu(x),
/// with K from a mathx::BesselKFit built here once: Temme's series below
/// x = 2, the Chebyshev fit from 2 to 700 (relative error within 1e-15 of
/// K_nu up to nu = 5; see mathx/bessel.hpp), and M = 0 beyond 700, where it
/// underflows. exp and log are mathx::lane_exp and lane_log (within 1 ulp
/// of std::exp and std::log). Construction costs about 0.15 ms off the
/// closed forms (the fit), so build one per smoothness, not per entry.
///
/// fill() assembles a covariance block column by column in staged passes
/// over vector lanes (8 with AVX-512, 4 with AVX2, 2 otherwise; see
/// common/isa.hpp):
///   (1) d = sqrt(dx^2 + dy^2) (mathx::lane_distance) and x = d / range;
///   (2) K from the fit at max(x, 2) for every entry, reading only the
///       series the order needs;
///   (3) Temme's series overwrites K where 0 < x < 2 (1-2% of the entries
///       of a weakly correlated field, 13-29% at ranges 0.1-0.17);
///   (4) M from K as above (or the closed form), times the variance, plus
///       the nugget where d = 0.
/// Each pass is one template over the lane count whose one-lane instance
/// is operator() (and mathx::euclidean2d for the distance), so fill()
/// equals the per-entry models bit for bit at every width, and every
/// Matérn-based model (nugget, anisotropic, Gneiting) shares
/// operator()'s bits. K itself keeps its bits: Temme's series and the fit
/// are mathx::bessel_k_scaled(fit, x)'s. The closed forms cap x at 750,
/// where e^{-x} is already 0, so a huge distance gives 0 rather than
/// inf * 0.
///
/// Stated bound. Against the same formula evaluated with std::hypot,
/// std::log and std::exp (the arithmetic before the lanes), a value moves by
/// at most 2^-50 (1 + |log_norm| + nu |log x| + x) relative (x alone in the
/// parentheses at the closed forms); tests/test_covariance.cpp checks it
/// (MaternCorrelation.WithinBoundOfLibmArithmetic). The terms are the sizes
/// of the exponent's parts: a last-bit change in an argument of size s
/// moves its exp by up to s ulp.
class MaternCorrelation {
 public:
  /// Throws InvalidArgument unless nu is positive and finite.
  explicit MaternCorrelation(double nu);

  /// M_nu(x); throws InvalidArgument unless x >= 0 (NaN included).
  [[nodiscard]] double operator()(double x) const;

  /// out(i, j) = variance * (*this)(d_ij / range), plus nugget where
  /// d_ij = 0, for d_ij = mathx::euclidean2d between rows[i] and cols[j]:
  /// the Matérn models' entries, bit for bit, through the passes above.
  /// Throws InvalidArgument if out's shape differs from the sets' or a
  /// distance is NaN.
  void fill(std::span<const Location> rows, std::span<const Location> cols, double variance,
            double range, double nugget, Span2D<double> out) const;

  [[nodiscard]] double nu() const noexcept { return nu_; }

 private:
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
  /// Through MaternCorrelation::fill.
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
