// Extended covariance families from the ExaGeoStat kernel catalogue.
//
// The paper's experiments use the stationary isotropic Matérn and the
// Gneiting space-time model; production geostatistics additionally needs a
// jointly-estimated nugget (measurement error) and geometric anisotropy.
#pragma once

#include "geostat/covariance.hpp"

namespace gsx::geostat {

/// Matérn with jointly estimated nugget: theta = (variance, range,
/// smoothness, nugget). The nugget enters only on exact location
/// coincidence, regularizing Sigma and absorbing measurement error.
class MaternNuggetCovariance final : public CovarianceModel {
 public:
  MaternNuggetCovariance(double variance, double range, double smoothness, double nugget);

  double operator()(const Location& a, const Location& b) const override;
  /// Through MaternCorrelation::fill, as MaternCovariance.
  void fill(std::span<const Location> rows, std::span<const Location> cols,
            Span2D<double> out) const override;
  std::size_t num_params() const override { return 4; }
  std::vector<double> params() const override;
  void set_params(std::span<const double> theta) override;
  std::vector<double> lower_bounds() const override;
  std::vector<double> upper_bounds() const override;
  std::vector<std::string> param_names() const override;
  std::unique_ptr<CovarianceModel> clone() const override;

 private:
  double variance_;
  double range_;
  MaternCorrelation corr_;
  double nugget_;
};

/// Geometrically anisotropic Matérn: theta = (variance, range_major,
/// range_minor, angle, smoothness). Distances are measured in a rotated,
/// axis-scaled frame; range_major >= range_minor aligns with `angle`
/// (radians, counter-clockwise from the x-axis).
class AnisotropicMaternCovariance final : public CovarianceModel {
 public:
  AnisotropicMaternCovariance(double variance, double range_major, double range_minor,
                              double angle, double smoothness, double nugget = 0.0);

  double operator()(const Location& a, const Location& b) const override;
  std::size_t num_params() const override { return 5; }
  std::vector<double> params() const override;
  void set_params(std::span<const double> theta) override;
  std::vector<double> lower_bounds() const override;
  std::vector<double> upper_bounds() const override;
  std::vector<std::string> param_names() const override;
  std::unique_ptr<CovarianceModel> clone() const override;

  /// Effective elliptical distance (exposed for tests).
  [[nodiscard]] double scaled_distance(const Location& a, const Location& b) const;

 private:
  double variance_;
  double range_major_;
  double range_minor_;
  double angle_;
  double cos_angle_;  ///< cos(angle_), sin(angle_): fixed with the angle
  double sin_angle_;
  MaternCorrelation corr_;
  double nugget_;
};

}  // namespace gsx::geostat
