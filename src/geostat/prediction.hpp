// Kriging prediction at unobserved locations, Eqs. (4)-(5):
//   Z_m = Sigma_mn Sigma_nn^{-1} Z_n,
//   U_m = diag[Sigma_mm - Sigma_mn Sigma_nn^{-1} Sigma_nm].
// cholesky::tile_krige and tile_krige_solved compute them through the tile
// factor.
#pragma once

#include <vector>

namespace gsx::geostat {

struct KrigingResult {
  std::vector<double> mean;      ///< predicted Z_m
  std::vector<double> variance;  ///< prediction uncertainty U_m (if requested)
};

}  // namespace gsx::geostat
