// Observation locations in space or space-time, and their generators.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace gsx::geostat {

/// A measurement location: planar coordinates plus (optional) time.
struct Location {
  double x = 0.0;
  double y = 0.0;
  double t = 0.0;
};

/// n locations on a jittered sqrt(n) x sqrt(n) grid in the unit square
/// (the irregular-but-space-filling layout ExaGeoStat uses for synthetic
/// datasets; jitter keeps the covariance matrix non-singular).
std::vector<Location> perturbed_grid_locations(std::size_t n, Rng& rng);

/// Replicate a spatial set across `slots` time points t = 0, dt, 2*dt, ...
/// (the monthly structure of the evapotranspiration dataset).
std::vector<Location> replicate_in_time(std::span<const Location> spatial,
                                        std::size_t slots, double dt = 1.0);

/// Morton (Z-order) sort of the locations in place: interleaved-bit order of
/// quantized coordinates. This is the "proper ordering" the paper relies on
/// to cluster covariance mass near the diagonal, creating the low-rank
/// structure TLR exploits. With `use_time`, the time coordinate joins the
/// bit interleave (3-D Z-order for space-time datasets).
void sort_morton(std::vector<Location>& locations, bool use_time = false);

/// Morton key of one location given the bounding box (exposed for tests).
std::uint64_t morton_key(const Location& loc, const Location& lo, const Location& hi,
                         bool use_time);

}  // namespace gsx::geostat
