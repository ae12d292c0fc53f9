#include "mathx/distance.hpp"

#include <cmath>

#include "mathx/lanes.hpp"

namespace gsx::mathx {

namespace {
constexpr double kDegToRad = 3.141592653589793238462643383279502884 / 180.0;
}

double euclidean2d(double x1, double y1, double x2, double y2) {
  const double dx = x1 - x2;
  const double dy = y1 - y2;
  bool needs_hypot = false;
  const double d = lane_distance<1>(dx, dy, needs_hypot);
  return needs_hypot ? std::hypot(dx, dy) : d;
}

double haversine_deg(double lon1, double lat1, double lon2, double lat2) {
  const double phi1 = lat1 * kDegToRad;
  const double phi2 = lat2 * kDegToRad;
  const double dphi = (lat2 - lat1) * kDegToRad;
  const double dlam = (lon2 - lon1) * kDegToRad;
  const double a = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlam / 2) * std::sin(dlam / 2);
  return 2.0 * std::asin(std::min(1.0, std::sqrt(a)));
}

}  // namespace gsx::mathx
