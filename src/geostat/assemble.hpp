// Covariance matrix assembly from a model and location sets.
#pragma once

#include <span>

#include "geostat/covariance.hpp"
#include "geostat/locations.hpp"
#include "la/matrix.hpp"
#include "tile/sym_tile_matrix.hpp"

namespace gsx::geostat {

/// Full symmetric n x n covariance matrix Sigma(theta) (small problems and
/// reference paths).
la::Matrix<double> covariance_matrix(const CovarianceModel& model,
                                     std::span<const Location> locs);

/// Generate the tiled covariance matrix (dense FP64 tiles) in parallel; the
/// adaptive Cholesky variants then demote/compress tiles per their policies.
void fill_covariance_tiles(tile::SymTileMatrix& tiles, const CovarianceModel& model,
                           std::span<const Location> locs, std::size_t num_workers = 1);

}  // namespace gsx::geostat
