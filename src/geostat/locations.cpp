#include "geostat/locations.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gsx::geostat {

std::vector<Location> perturbed_grid_locations(std::size_t n, Rng& rng) {
  GSX_REQUIRE(n > 0, "perturbed_grid_locations: n must be positive");
  const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double step = 1.0 / static_cast<double>(side);
  const double jitter = step / 3.0;
  std::vector<Location> locs;
  locs.reserve(side * side);
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) {
      Location l;
      l.x = (static_cast<double>(i) + 0.5) * step + rng.uniform(-jitter, jitter);
      l.y = (static_cast<double>(j) + 0.5) * step + rng.uniform(-jitter, jitter);
      locs.push_back(l);
    }
  }
  // Drop surplus points at random so every grid region keeps coverage.
  while (locs.size() > n) {
    const std::size_t idx = rng.uniform_index(locs.size());
    locs[idx] = locs.back();
    locs.pop_back();
  }
  return locs;
}

std::vector<Location> replicate_in_time(std::span<const Location> spatial,
                                        std::size_t slots, double dt) {
  GSX_REQUIRE(slots > 0, "replicate_in_time: need at least one slot");
  std::vector<Location> out;
  out.reserve(spatial.size() * slots);
  for (std::size_t s = 0; s < slots; ++s) {
    for (const Location& l : spatial) {
      Location st = l;
      st.t = static_cast<double>(s) * dt;
      out.push_back(st);
    }
  }
  return out;
}

namespace {

/// Spread the low 21 bits of x so consecutive bits land 3 apart.
std::uint64_t spread3(std::uint64_t x) {
  x &= 0x1fffffull;
  x = (x | (x << 32)) & 0x1f00000000ffffull;
  x = (x | (x << 16)) & 0x1f0000ff0000ffull;
  x = (x | (x << 8)) & 0x100f00f00f00f00full;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}

/// Spread the low 32 bits so consecutive bits land 2 apart.
std::uint64_t spread2(std::uint64_t x) {
  x &= 0xffffffffull;
  x = (x | (x << 16)) & 0x0000ffff0000ffffull;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

std::uint64_t quantize(double v, double lo, double hi, unsigned bits) {
  const double span = hi - lo;
  if (span <= 0.0) return 0;
  const double unit = (v - lo) / span;
  const auto maxq = (std::uint64_t{1} << bits) - 1;
  const double q = std::clamp(unit, 0.0, 1.0) * static_cast<double>(maxq);
  return static_cast<std::uint64_t>(q);
}

}  // namespace

std::uint64_t morton_key(const Location& loc, const Location& lo, const Location& hi,
                         bool use_time) {
  if (!use_time) {
    const std::uint64_t qx = quantize(loc.x, lo.x, hi.x, 32);
    const std::uint64_t qy = quantize(loc.y, lo.y, hi.y, 32);
    return spread2(qx) | (spread2(qy) << 1);
  }
  const std::uint64_t qx = quantize(loc.x, lo.x, hi.x, 21);
  const std::uint64_t qy = quantize(loc.y, lo.y, hi.y, 21);
  const std::uint64_t qt = quantize(loc.t, lo.t, hi.t, 21);
  return spread3(qx) | (spread3(qy) << 1) | (spread3(qt) << 2);
}

void sort_morton(std::vector<Location>& locations, bool use_time) {
  if (locations.size() < 2) return;
  Location lo = locations.front();
  Location hi = locations.front();
  for (const Location& l : locations) {
    lo.x = std::min(lo.x, l.x);
    lo.y = std::min(lo.y, l.y);
    lo.t = std::min(lo.t, l.t);
    hi.x = std::max(hi.x, l.x);
    hi.y = std::max(hi.y, l.y);
    hi.t = std::max(hi.t, l.t);
  }
  std::stable_sort(locations.begin(), locations.end(),
                   [&](const Location& a, const Location& b) {
                     return morton_key(a, lo, hi, use_time) < morton_key(b, lo, hi, use_time);
                   });
}

}  // namespace gsx::geostat
