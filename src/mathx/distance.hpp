// The distance between observation locations.
#pragma once

namespace gsx::mathx {

/// Euclidean distance in the plane: sqrt(dx^2 + dy^2), or std::hypot(dx, dy)
/// where dx^2 + dy^2 leaves the normal range with a nonzero difference
/// (separations below ~1.5e-154, or an overflow). So the distance is 0
/// exactly when the two points coincide, and a kernel's nugget, keyed on
/// distance 0, means "same location". This is the one-lane instance of
/// mathx::lane_distance, which the Matérn assembly runs in vector lanes.
double euclidean2d(double x1, double y1, double x2, double y2);

}  // namespace gsx::mathx
