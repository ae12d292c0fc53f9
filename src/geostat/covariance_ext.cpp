#include "geostat/covariance_ext.hpp"

#include <cmath>

#include "common/error.hpp"
#include "mathx/distance.hpp"

namespace gsx::geostat {

// ------------------------------------------------- Matérn + nugget

MaternNuggetCovariance::MaternNuggetCovariance(double variance, double range,
                                               double smoothness, double nugget)
    : variance_(variance), range_(range), corr_(smoothness), nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range > 0 && smoothness > 0 && nugget >= 0,
              "MaternNuggetCovariance: invalid parameters");
}

double MaternNuggetCovariance::operator()(const Location& a, const Location& b) const {
  const double d = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double c = variance_ * corr_(d / range_);
  return (d == 0.0) ? c + nugget_ : c;
}

void MaternNuggetCovariance::fill(std::span<const Location> rows,
                                  std::span<const Location> cols, Span2D<double> out) const {
  corr_.fill(rows, cols, variance_, range_, nugget_, out);
}

std::vector<double> MaternNuggetCovariance::params() const {
  return {variance_, range_, corr_.nu(), nugget_};
}

void MaternNuggetCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 4, "MaternNuggetCovariance: expects 4 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[3] >= 0,
              "MaternNuggetCovariance: invalid parameters");
  corr_ = MaternCorrelation(theta[2]);
  variance_ = theta[0];
  range_ = theta[1];
  nugget_ = theta[3];
}

std::vector<double> MaternNuggetCovariance::lower_bounds() const {
  return {0.01, 0.005, 0.05, 1e-8};
}
std::vector<double> MaternNuggetCovariance::upper_bounds() const {
  return {10.0, 5.0, 5.0, 2.0};
}
std::vector<std::string> MaternNuggetCovariance::param_names() const {
  return {"variance", "range", "smoothness", "nugget"};
}
std::unique_ptr<CovarianceModel> MaternNuggetCovariance::clone() const {
  return std::make_unique<MaternNuggetCovariance>(*this);
}

// ------------------------------------------------- anisotropic Matérn

AnisotropicMaternCovariance::AnisotropicMaternCovariance(double variance,
                                                         double range_major,
                                                         double range_minor, double angle,
                                                         double smoothness, double nugget)
    : variance_(variance),
      range_major_(range_major),
      range_minor_(range_minor),
      angle_(angle),
      cos_angle_(std::cos(angle)),
      sin_angle_(std::sin(angle)),
      corr_(smoothness),
      nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range_major > 0 && range_minor > 0 && smoothness > 0 &&
                  nugget >= 0,
              "AnisotropicMaternCovariance: invalid parameters");
}

double AnisotropicMaternCovariance::scaled_distance(const Location& a,
                                                    const Location& b) const {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  // Rotate into the anisotropy frame, then scale each axis by its range.
  const double u = (cos_angle_ * dx + sin_angle_ * dy) / range_major_;
  const double v = (-sin_angle_ * dx + cos_angle_ * dy) / range_minor_;
  return std::hypot(u, v);
}

double AnisotropicMaternCovariance::operator()(const Location& a, const Location& b) const {
  const double d = scaled_distance(a, b);
  const double cval = variance_ * corr_(d);
  return (d == 0.0) ? cval + nugget_ : cval;
}

std::vector<double> AnisotropicMaternCovariance::params() const {
  return {variance_, range_major_, range_minor_, angle_, corr_.nu()};
}

void AnisotropicMaternCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 5, "AnisotropicMaternCovariance: expects 5 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[4] > 0,
              "AnisotropicMaternCovariance: invalid parameters");
  corr_ = MaternCorrelation(theta[4]);
  variance_ = theta[0];
  range_major_ = theta[1];
  range_minor_ = theta[2];
  angle_ = theta[3];
  cos_angle_ = std::cos(angle_);
  sin_angle_ = std::sin(angle_);
}

std::vector<double> AnisotropicMaternCovariance::lower_bounds() const {
  return {0.01, 0.005, 0.005, 0.0, 0.05};
}
std::vector<double> AnisotropicMaternCovariance::upper_bounds() const {
  return {10.0, 5.0, 5.0, 3.141592653589793, 5.0};
}
std::vector<std::string> AnisotropicMaternCovariance::param_names() const {
  return {"variance", "range-major", "range-minor", "angle", "smoothness"};
}
std::unique_ptr<CovarianceModel> AnisotropicMaternCovariance::clone() const {
  return std::make_unique<AnisotropicMaternCovariance>(*this);
}

}  // namespace gsx::geostat
