#include "geostat/covariance.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "mathx/bessel.hpp"
#include "mathx/distance.hpp"

namespace gsx::geostat {

namespace {

/// Half-integer smoothness with a closed form (the common special cases).
bool closed_form(double nu) { return nu == 0.5 || nu == 1.5 || nu == 2.5; }

/// Beyond this distance M_nu underflows to 0, which is the correct limit.
constexpr double kUnderflowDistance = 700.0;

}  // namespace

MaternCorrelation::MaternCorrelation(double nu) : nu_(nu) {
  GSX_REQUIRE(nu > 0.0 && std::isfinite(nu),
              "MaternCorrelation: smoothness must be positive and finite");
  if (closed_form(nu)) return;  // closed forms need no Bessel K
  log_norm_ = (1.0 - nu) * std::log(2.0) - std::lgamma(nu);
  fit_ = mathx::BesselKFit(nu);
}

double MaternCorrelation::operator()(double d) const {
  // Also the guard that turns a NaN location into an error rather than a
  // NaN tile entry.
  GSX_REQUIRE(d >= 0.0, "MaternCorrelation: distance must be non-negative");
  if (d == 0.0) return 1.0;
  if (nu_ == 0.5) return std::exp(-d);
  if (nu_ == 1.5) return (1.0 + d) * std::exp(-d);
  if (nu_ == 2.5) return (1.0 + d + d * d / 3.0) * std::exp(-d);
  if (d > kUnderflowDistance) return 0.0;
  return from_k_scaled(d, mathx::bessel_k_scaled(fit_, d));
}

void MaternCorrelation::eval(std::span<const double> d, std::span<double> out) const {
  GSX_REQUIRE(d.size() == out.size(), "MaternCorrelation::eval: d and out differ in length");
  if (closed_form(nu_)) {
    for (std::size_t i = 0; i < d.size(); ++i) out[i] = (*this)(d[i]);
    return;
  }
  // The distances of a chunk that need K_nu, with their positions in d.
  constexpr std::size_t kChunk = 256;
  std::array<double, kChunk> x;
  std::array<double, kChunk> k;
  std::array<std::size_t, kChunk> at;
  for (std::size_t c0 = 0; c0 < d.size(); c0 += kChunk) {
    const std::size_t c1 = std::min(d.size(), c0 + kChunk);
    std::size_t m = 0;
    for (std::size_t i = c0; i < c1; ++i) {
      GSX_REQUIRE(d[i] >= 0.0, "MaternCorrelation: distance must be non-negative");
      if (d[i] == 0.0) {
        out[i] = 1.0;
      } else if (d[i] > kUnderflowDistance) {
        out[i] = 0.0;
      } else {
        x[m] = d[i];
        at[m++] = i;
      }
    }
    mathx::bessel_k_scaled(fit_, std::span<const double>(x.data(), m),
                           std::span<double>(k.data(), m));
    for (std::size_t t = 0; t < m; ++t) out[at[t]] = from_k_scaled(x[t], k[t]);
  }
}

double MaternCorrelation::from_k_scaled(double d, double k_scaled) const {
  // K_nu(d) = e^{-d} * K_scaled: the e^{-d} joins the exponent of the
  // prefactor, so the product does not underflow early.
  const double log_pref = log_norm_ + nu_ * std::log(d);
  const double val = std::exp(log_pref - d) * k_scaled;
  return std::min(val, 1.0);  // guard tiny numerical overshoot near d -> 0
}

void CovarianceModel::fill(std::span<const Location> rows, std::span<const Location> cols,
                           Span2D<double> out) const {
  GSX_REQUIRE(out.rows() == rows.size() && out.cols() == cols.size(),
              "CovarianceModel::fill: block shape differs from the location sets");
  for (std::size_t j = 0; j < cols.size(); ++j)
    for (std::size_t i = 0; i < rows.size(); ++i) out(i, j) = (*this)(rows[i], cols[j]);
}

// ---------------------------------------------------------------- Matérn

MaternCovariance::MaternCovariance(double variance, double range, double smoothness,
                                   double nugget)
    : variance_(variance), range_(range), corr_(smoothness), nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range > 0 && nugget >= 0,
              "MaternCovariance: parameters must be positive (nugget >= 0)");
}

double MaternCovariance::operator()(const Location& a, const Location& b) const {
  const double d = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double c = variance_ * corr_(d / range_);
  return (d == 0.0) ? c + nugget_ : c;
}

void MaternCovariance::fill(std::span<const Location> rows, std::span<const Location> cols,
                            Span2D<double> out) const {
  GSX_REQUIRE(out.rows() == rows.size() && out.cols() == cols.size(),
              "MaternCovariance::fill: block shape differs from the location sets");
  std::vector<double> d(rows.size());
  std::vector<double> scaled(rows.size());
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const Location& b = cols[j];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      d[i] = mathx::euclidean2d(rows[i].x, rows[i].y, b.x, b.y);
      scaled[i] = d[i] / range_;
    }
    const std::span<double> col(out.data() + j * out.ld(), rows.size());
    corr_.eval(scaled, col);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double c = variance_ * col[i];
      col[i] = (d[i] == 0.0) ? c + nugget_ : c;
    }
  }
}

std::vector<double> MaternCovariance::params() const {
  return {variance_, range_, corr_.nu()};
}

void MaternCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 3, "MaternCovariance: expects 3 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0,
              "MaternCovariance: parameters must be positive");
  corr_ = MaternCorrelation(theta[2]);
  variance_ = theta[0];
  range_ = theta[1];
}

std::vector<double> MaternCovariance::lower_bounds() const { return {0.01, 0.005, 0.05}; }
std::vector<double> MaternCovariance::upper_bounds() const { return {10.0, 5.0, 5.0}; }
std::vector<std::string> MaternCovariance::param_names() const {
  return {"variance", "range", "smoothness"};
}
std::unique_ptr<CovarianceModel> MaternCovariance::clone() const {
  return std::make_unique<MaternCovariance>(*this);
}

// ---------------------------------------------- Powered exponential

PoweredExponentialCovariance::PoweredExponentialCovariance(double variance, double range,
                                                           double power, double nugget)
    : variance_(variance), range_(range), power_(power), nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range > 0 && power > 0 && power <= 2.0 && nugget >= 0,
              "PoweredExponentialCovariance: invalid parameters");
}

double PoweredExponentialCovariance::operator()(const Location& a, const Location& b) const {
  const double d = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double c = variance_ * std::exp(-std::pow(d / range_, power_));
  return (d == 0.0) ? c + nugget_ : c;
}

std::vector<double> PoweredExponentialCovariance::params() const {
  return {variance_, range_, power_};
}

void PoweredExponentialCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 3, "PoweredExponentialCovariance: expects 3 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[2] <= 2.0,
              "PoweredExponentialCovariance: invalid parameters");
  variance_ = theta[0];
  range_ = theta[1];
  power_ = theta[2];
}

std::vector<double> PoweredExponentialCovariance::lower_bounds() const {
  return {0.01, 0.005, 0.05};
}
std::vector<double> PoweredExponentialCovariance::upper_bounds() const {
  return {10.0, 5.0, 2.0};
}
std::vector<std::string> PoweredExponentialCovariance::param_names() const {
  return {"variance", "range", "power"};
}
std::unique_ptr<CovarianceModel> PoweredExponentialCovariance::clone() const {
  return std::make_unique<PoweredExponentialCovariance>(*this);
}

// ------------------------------------------------------ Gneiting

GneitingCovariance::GneitingCovariance(double variance, double range_s, double smooth_s,
                                       double range_t, double smooth_t, double beta,
                                       double nugget)
    : variance_(variance),
      range_s_(range_s),
      corr_s_(smooth_s),
      range_t_(range_t),
      smooth_t_(smooth_t),
      beta_(beta),
      nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range_s > 0 && range_t > 0,
              "GneitingCovariance: scale parameters must be positive");
  GSX_REQUIRE(smooth_t > 0 && smooth_t <= 1.0, "GneitingCovariance: alpha in (0, 1]");
  GSX_REQUIRE(beta >= 0 && beta <= 1.0, "GneitingCovariance: beta in [0, 1]");
  GSX_REQUIRE(nugget >= 0, "GneitingCovariance: nugget must be non-negative");
}

double GneitingCovariance::operator()(const Location& a, const Location& b) const {
  const double h = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double u = std::fabs(a.t - b.t);
  const double psi = range_t_ * std::pow(u, 2.0 * smooth_t_) + 1.0;
  const double arg = h / (range_s_ * std::pow(psi, beta_ / 2.0));
  const double c = variance_ / psi * corr_s_(arg);
  return (h == 0.0 && u == 0.0) ? c + nugget_ : c;
}

std::vector<double> GneitingCovariance::params() const {
  return {variance_, range_s_, corr_s_.nu(), range_t_, smooth_t_, beta_};
}

void GneitingCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 6, "GneitingCovariance: expects 6 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[3] > 0,
              "GneitingCovariance: scale parameters must be positive");
  GSX_REQUIRE(theta[4] > 0 && theta[4] <= 1.0, "GneitingCovariance: alpha in (0, 1]");
  GSX_REQUIRE(theta[5] >= 0 && theta[5] <= 1.0, "GneitingCovariance: beta in [0, 1]");
  corr_s_ = MaternCorrelation(theta[2]);
  variance_ = theta[0];
  range_s_ = theta[1];
  range_t_ = theta[3];
  smooth_t_ = theta[4];
  beta_ = theta[5];
}

std::vector<double> GneitingCovariance::lower_bounds() const {
  return {0.01, 0.005, 0.05, 0.001, 0.01, 0.0};
}
std::vector<double> GneitingCovariance::upper_bounds() const {
  return {10.0, 10.0, 5.0, 10.0, 1.0, 1.0};
}
std::vector<std::string> GneitingCovariance::param_names() const {
  return {"variance", "range-space", "smooth-space", "range-time", "smooth-time", "beta"};
}
std::unique_ptr<CovarianceModel> GneitingCovariance::clone() const {
  return std::make_unique<GneitingCovariance>(*this);
}

}  // namespace gsx::geostat
