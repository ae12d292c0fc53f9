// Parsimonious bivariate Matérn (Gneiting, Kleiber & Schlather, 2010).
//
// The paper's covariance dimension is "the product of the number of
// observation locations and the number of variables observed at each"
// (Section III); ExaGeoStat ships this bivariate kernel. Two co-located
// variables share a range; cross-covariance uses the mean smoothness and a
// co-located correlation coefficient bounded for validity:
//   C_ii(h)  = sigma_i^2           M_{nu_i}((h)/a)
//   C_12(h)  = rho sigma_1 sigma_2 M_{(nu_1+nu_2)/2}(h/a)
// The component index rides in Location::t (0 or 1) so bivariate fields
// reuse the whole scalar pipeline (tiling, Cholesky, MLE, kriging).
#pragma once

#include "geostat/covariance.hpp"

namespace gsx::geostat {

/// Duplicate a spatial location set into component-tagged observations:
/// first all component-0 entries, then component-1 (t = 0 / 1).
std::vector<Location> make_bivariate_locations(std::span<const Location> spatial);

/// theta = (sigma1^2, sigma2^2, range, nu1, nu2, rho).
class BivariateMaternCovariance final : public CovarianceModel {
 public:
  BivariateMaternCovariance(double var1, double var2, double range, double smooth1,
                            double smooth2, double rho, double nugget = 0.0);

  double operator()(const Location& a, const Location& b) const override;
  std::size_t num_params() const override { return 6; }
  std::vector<double> params() const override;
  void set_params(std::span<const double> theta) override;
  std::vector<double> lower_bounds() const override;
  std::vector<double> upper_bounds() const override;
  std::vector<std::string> param_names() const override;
  std::unique_ptr<CovarianceModel> clone() const override;

  /// Upper bound on |rho| for positive definiteness of the parsimonious
  /// model in d = 2 (Gneiting et al., Theorem 3 with common range).
  static double max_rho(double smooth1, double smooth2);

 private:
  double var1_;
  double var2_;
  double range_;
  MaternCorrelation corr1_;   ///< nu1, component 0 with itself
  MaternCorrelation corr2_;   ///< nu2, component 1 with itself
  MaternCorrelation corr12_;  ///< (nu1 + nu2) / 2, across components
  double rho_;
  double nugget_;
};

}  // namespace gsx::geostat
