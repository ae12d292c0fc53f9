#include "mathx/distance.hpp"

#include <cmath>

#include "mathx/lanes.hpp"

namespace gsx::mathx {

double euclidean2d(double x1, double y1, double x2, double y2) {
  const double dx = x1 - x2;
  const double dy = y1 - y2;
  bool needs_hypot = false;
  const double d = lane_distance<1>(dx, dy, needs_hypot);
  return needs_hypot ? std::hypot(dx, dy) : d;
}

}  // namespace gsx::mathx
