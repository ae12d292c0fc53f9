// The vector-lane exp and log (mathx/lanes.hpp) against libm, at the lane
// width the CPU selects. ctest runs this again under GSX_GEMM_ISA=avx2 and
// =portable (tests/CMakeLists.txt), so every width the host supports is
// checked against the one-lane instance. Like the library sources that use
// the lanes, this file is compiled with -ffp-contract=off (and -Wno-psabi).
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "common/isa.hpp"
#include "common/rng.hpp"
#include "mathx/lanes.hpp"

namespace gsx::mathx {
namespace {

enum class Fn { Exp, Log };

/// y = f(x), W lanes at a time and the tail one lane at a time.
template <int W, Fn F>
GSX_LANE_INLINE void run_lanes(const double* x, double* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const LaneD<W> v = lane_load<W>(x + i);
    if constexpr (F == Fn::Exp) {
      lane_store<W>(y + i, lane_exp<W>(v));
    } else {
      lane_store<W>(y + i, lane_log<W>(v));
    }
  }
  for (; i < n; ++i) y[i] = F == Fn::Exp ? lane_exp<1>(x[i]) : lane_log<1>(x[i]);
}

void run_portable(Fn f, const double* x, double* y, std::size_t n) {
  f == Fn::Exp ? run_lanes<2, Fn::Exp>(x, y, n) : run_lanes<2, Fn::Log>(x, y, n);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void run_avx2(Fn f, const double* x, double* y, std::size_t n) {
  f == Fn::Exp ? run_lanes<4, Fn::Exp>(x, y, n) : run_lanes<4, Fn::Log>(x, y, n);
}

__attribute__((target("avx512f"))) void run_avx512(Fn f, const double* x, double* y,
                                                  std::size_t n) {
  f == Fn::Exp ? run_lanes<8, Fn::Exp>(x, y, n) : run_lanes<8, Fn::Log>(x, y, n);
}
#endif

/// f over x at the width active_isa() selects, as the Matérn assembly runs it.
std::vector<double> at_active_width(Fn f, const std::vector<double>& x) {
  std::vector<double> y(x.size());
  switch (active_isa()) {
#if defined(__x86_64__)
    case Isa::Avx512: run_avx512(f, x.data(), y.data(), x.size()); break;
    case Isa::Avx2: run_avx2(f, x.data(), y.data(), x.size()); break;
#endif
    default: run_portable(f, x.data(), y.data(), x.size()); break;
  }
  return y;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Distance in units in the last place between two finite doubles of the
/// same sign (0 for equal values).
std::uint64_t ulps(double a, double b) {
  const std::uint64_t ia = bits(a);
  const std::uint64_t ib = bits(b);
  return ia > ib ? ia - ib : ib - ia;
}

struct Worst {
  std::uint64_t max_ulps = 0;
  double at = 0.0;
  std::size_t width_mismatches = 0;
};

Worst compare(Fn f, const std::vector<double>& x, double (*libm)(double)) {
  const std::vector<double> y = at_active_width(f, x);
  Worst w;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::uint64_t u = ulps(y[i], libm(x[i]));
    if (u > w.max_ulps) {
      w.max_ulps = u;
      w.at = x[i];
    }
    const double one = f == Fn::Exp ? lane_exp<1>(x[i]) : lane_log<1>(x[i]);
    w.width_mismatches += bits(y[i]) != bits(one);
  }
  return w;
}

TEST(LaneMath, ExpWithinOneUlpOfLibm) {
  // Over [-745.13, 709.78]: a uniform grid, random points, the subnormal
  // results below -708.4 and the arguments around 0.
  std::vector<double> x;
  constexpr double kLo = -745.13;
  constexpr double kHi = 709.78;
  for (int i = 0; i <= 300000; ++i) x.push_back(kLo + (kHi - kLo) * i / 300000.0);
  Rng rng(5);
  for (int i = 0; i < 300000; ++i) x.push_back(rng.uniform(kLo, kHi));
  for (int i = 0; i < 100000; ++i) x.push_back(rng.uniform(kLo, -708.39));
  for (int i = 0; i < 100000; ++i) x.push_back(rng.uniform(-1e-3, 1e-3));
  x.push_back(0.0);
  x.push_back(-0x1p-60);
  const Worst w = compare(Fn::Exp, x, [](double v) { return std::exp(v); });
  EXPECT_LE(w.max_ulps, 1u) << "at x = " << w.at;
  EXPECT_EQ(w.width_mismatches, 0u);
  EXPECT_EQ(lane_exp<1>(0.0), 1.0);
  // A subnormal result is still within 1 ulp (of the subnormal spacing).
  EXPECT_GT(lane_exp<1>(-745.0), 0.0);
  EXPECT_LT(lane_exp<1>(-745.0), DBL_MIN);
  // Below the range the result is exactly 0, above it +inf.
  const std::vector<double> out = {-745.2, -746.0, -800.0, -1e300,
                                   -std::numeric_limits<double>::infinity()};
  for (double v : at_active_width(Fn::Exp, out)) EXPECT_EQ(bits(v), bits(0.0));
  const std::vector<double> over = {709.8, 710.0, 1e300};
  for (double v : at_active_width(Fn::Exp, over))
    EXPECT_EQ(v, std::numeric_limits<double>::infinity());
}

TEST(LaneMath, LogWithinOneUlpOfLibm) {
  // Normal inputs in (0, DBL_MAX]: log-uniform over every binade, the
  // neighbourhoods of 1 and of the reduction's split at sqrt(2), the range's
  // ends, and subnormal inputs too.
  std::vector<double> x;
  Rng rng(7);
  for (int i = 0; i < 400000; ++i) x.push_back(std::exp2(rng.uniform(-1022.0, 1024.0)));
  for (int i = 0; i < 100000; ++i) x.push_back(1.0 + rng.uniform(-1e-6, 1e-6));
  for (double split : {std::numbers::sqrt2, 0.5 * std::numbers::sqrt2})
    for (int i = 0; i < 50000; ++i) x.push_back(split * (1.0 + rng.uniform(-1e-9, 1e-9)));
  for (int i = 0; i < 10000; ++i) x.push_back(std::exp2(rng.uniform(-1074.0, -1022.0)));
  for (double v : {1.0, 2.0, 0.5, DBL_MIN, DBL_MAX, DBL_TRUE_MIN, std::nextafter(1.0, 2.0),
                   std::nextafter(1.0, 0.0), 700.0})
    x.push_back(v);
  const Worst w = compare(Fn::Log, x, [](double v) { return std::log(v); });
  EXPECT_LE(w.max_ulps, 1u) << "at x = " << w.at;
  EXPECT_EQ(w.width_mismatches, 0u);
  EXPECT_EQ(lane_log<1>(1.0), 0.0);
}

}  // namespace
}  // namespace gsx::mathx
