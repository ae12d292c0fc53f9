#include "geostat/bivariate.hpp"

#include <cmath>

#include "common/error.hpp"
#include "mathx/distance.hpp"

namespace gsx::geostat {

std::vector<Location> make_bivariate_locations(std::span<const Location> spatial) {
  std::vector<Location> out;
  out.reserve(2 * spatial.size());
  for (int comp = 0; comp < 2; ++comp) {
    for (const Location& l : spatial) {
      Location tagged = l;
      tagged.t = static_cast<double>(comp);
      out.push_back(tagged);
    }
  }
  return out;
}

double BivariateMaternCovariance::max_rho(double smooth1, double smooth2) {
  // d = 2: rho_max = [Gamma(nu1+1) Gamma(nu2+1)]^{1/2} / Gamma(nu12+1)
  //                  * Gamma(nu12) / [Gamma(nu1) Gamma(nu2)]^{1/2},
  // nu12 = (nu1+nu2)/2 (Gneiting-Kleiber-Schlather, parsimonious case).
  const double nu12 = 0.5 * (smooth1 + smooth2);
  const double lg = 0.5 * (std::lgamma(smooth1 + 1.0) + std::lgamma(smooth2 + 1.0)) -
                    std::lgamma(nu12 + 1.0) + std::lgamma(nu12) -
                    0.5 * (std::lgamma(smooth1) + std::lgamma(smooth2));
  return std::exp(lg);
}

namespace {

/// The component a location's tag names. Checked before any conversion, so
/// a fractional, out-of-range or NaN tag is an error rather than a guess.
int component(const Location& l) {
  GSX_REQUIRE(l.t == 0.0 || l.t == 1.0,
              "BivariateMaternCovariance: component tag (Location::t) must be 0 or 1");
  return l.t == 1.0 ? 1 : 0;
}

}  // namespace

BivariateMaternCovariance::BivariateMaternCovariance(double var1, double var2,
                                                     double range, double smooth1,
                                                     double smooth2, double rho,
                                                     double nugget)
    : var1_(var1),
      var2_(var2),
      range_(range),
      corr1_(smooth1),
      corr2_(smooth2),
      corr12_(0.5 * (smooth1 + smooth2)),
      rho_(rho),
      nugget_(nugget) {
  GSX_REQUIRE(var1 > 0 && var2 > 0 && range > 0 && nugget >= 0,
              "BivariateMaternCovariance: invalid scale parameters");
  GSX_REQUIRE(std::fabs(rho) <= max_rho(smooth1, smooth2),
              "BivariateMaternCovariance: |rho| exceeds the validity bound");
}

double BivariateMaternCovariance::operator()(const Location& a, const Location& b) const {
  const double h = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const int ca = component(a);
  const int cb = component(b);
  double c;
  if (ca == cb) {
    c = (ca == 0) ? var1_ * corr1_(h / range_) : var2_ * corr2_(h / range_);
    if (h == 0.0) c += nugget_;
  } else {
    c = rho_ * std::sqrt(var1_ * var2_) * corr12_(h / range_);
  }
  return c;
}

std::vector<double> BivariateMaternCovariance::params() const {
  return {var1_, var2_, range_, corr1_.nu(), corr2_.nu(), rho_};
}

void BivariateMaternCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 6, "BivariateMaternCovariance: expects 6 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[3] > 0 && theta[4] > 0,
              "BivariateMaternCovariance: invalid scale parameters");
  GSX_REQUIRE(std::fabs(theta[5]) <= max_rho(theta[3], theta[4]),
              "BivariateMaternCovariance: |rho| exceeds the validity bound");
  MaternCorrelation corr1(theta[3]);
  MaternCorrelation corr2(theta[4]);
  MaternCorrelation corr12(0.5 * (theta[3] + theta[4]));
  var1_ = theta[0];
  var2_ = theta[1];
  range_ = theta[2];
  corr1_ = corr1;
  corr2_ = corr2;
  corr12_ = corr12;
  rho_ = theta[5];
}

std::vector<double> BivariateMaternCovariance::lower_bounds() const {
  return {0.01, 0.01, 0.005, 0.05, 0.05, -0.9};
}
std::vector<double> BivariateMaternCovariance::upper_bounds() const {
  return {10.0, 10.0, 5.0, 3.0, 3.0, 0.9};
}
std::vector<std::string> BivariateMaternCovariance::param_names() const {
  return {"variance-1", "variance-2", "range", "smooth-1", "smooth-2", "rho"};
}
std::unique_ptr<CovarianceModel> BivariateMaternCovariance::clone() const {
  return std::make_unique<BivariateMaternCovariance>(*this);
}

}  // namespace gsx::geostat
