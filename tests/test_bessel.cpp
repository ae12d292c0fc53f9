// Tests for K_nu: closed forms, reference values, identities.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "mathx/bessel.hpp"

namespace gsx::mathx {
namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

double k_half(double x) { return std::sqrt(kPi / (2.0 * x)) * std::exp(-x); }

TEST(Bessel, HalfIntegerClosedFormNuHalf) {
  // K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}.
  for (double x : {0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0}) {
    EXPECT_NEAR(bessel_k(0.5, x), k_half(x), 1e-12 * k_half(x)) << "x = " << x;
  }
}

TEST(Bessel, HalfIntegerClosedFormNuThreeHalves) {
  // K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x).
  for (double x : {0.05, 0.3, 1.0, 3.0, 10.0, 50.0}) {
    const double expect = k_half(x) * (1.0 + 1.0 / x);
    EXPECT_NEAR(bessel_k(1.5, x), expect, 1e-12 * expect) << "x = " << x;
  }
}

TEST(Bessel, HalfIntegerClosedFormNuFiveHalves) {
  // K_{5/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 3/x + 3/x^2).
  for (double x : {0.1, 1.0, 4.0, 12.0}) {
    const double expect = k_half(x) * (1.0 + 3.0 / x + 3.0 / (x * x));
    EXPECT_NEAR(bessel_k(2.5, x), expect, 1e-12 * expect) << "x = " << x;
  }
}

TEST(Bessel, ReferenceValuesIntegerOrder) {
  // Abramowitz & Stegun / verified high-precision references.
  EXPECT_NEAR(bessel_k(0.0, 1.0), 0.42102443824070834, 1e-14);
  EXPECT_NEAR(bessel_k(1.0, 1.0), 0.60190723019723458, 1e-14);
  EXPECT_NEAR(bessel_k(0.0, 2.0), 0.11389387274953344, 1e-14);
  EXPECT_NEAR(bessel_k(1.0, 2.0), 0.13986588181652243, 1e-14);
  EXPECT_NEAR(bessel_k(2.0, 2.0), 0.25375975456605586, 1e-14);
  EXPECT_NEAR(bessel_k(5.0, 10.0), 5.7541849985e-05, 1e-14);
}

/// Oracle via the integral representation
///   K_nu(x) = \int_0^inf exp(-x cosh t) cosh(nu t) dt
/// evaluated with composite Simpson on a truncated domain.
double bessel_k_quadrature(double nu, double x) {
  double tmax = 2.0;
  while (x * std::cosh(tmax) < 750.0) tmax += 0.5;
  const int n = 40000;  // even
  const double h = tmax / n;
  auto f = [&](double t) { return std::exp(-x * std::cosh(t)) * std::cosh(nu * t); };
  double s = f(0.0) + f(tmax);
  for (int i = 1; i < n; ++i) s += f(i * h) * ((i % 2) ? 4.0 : 2.0);
  return s * h / 3.0;
}

struct NuX {
  double nu, x;
};

class BesselQuadrature : public ::testing::TestWithParam<NuX> {};

TEST_P(BesselQuadrature, MatchesIntegralRepresentation) {
  const auto [nu, x] = GetParam();
  const double oracle = bessel_k_quadrature(nu, x);
  EXPECT_NEAR(bessel_k(nu, x), oracle, 1e-10 * oracle) << "nu=" << nu << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(FractionalOrders, BesselQuadrature,
                         ::testing::Values(NuX{0.25, 1.0}, NuX{0.44, 0.3}, NuX{0.44, 1.7},
                                           NuX{0.75, 0.5}, NuX{1.25, 0.5}, NuX{1.9, 2.2},
                                           NuX{3.3, 4.0}, NuX{0.32, 5.0}, NuX{2.5, 0.7},
                                           NuX{4.75, 3.1}));

TEST(Bessel, RecurrenceIdentity) {
  // K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x).
  for (double nu : {0.3, 0.44, 1.0, 1.7, 2.9}) {
    for (double x : {0.2, 1.0, 3.0, 8.0}) {
      const double lhs = bessel_k(nu + 1.0, x);
      const double rhs = bessel_k(nu - 1.0 < 0 ? -(nu - 1.0) : nu - 1.0, x) +
                         (2.0 * nu / x) * bessel_k(nu, x);
      EXPECT_NEAR(lhs, rhs, 1e-11 * std::fabs(rhs)) << "nu=" << nu << " x=" << x;
    }
  }
}

TEST(Bessel, SymmetricInOrder) {
  for (double x : {0.5, 2.0, 7.0}) {
    EXPECT_DOUBLE_EQ(bessel_k(-0.7, x), bessel_k(0.7, x));
    EXPECT_DOUBLE_EQ(bessel_k(-2.0, x), bessel_k(2.0, x));
  }
}

TEST(Bessel, ScaledMatchesUnscaled) {
  for (double nu : {0.44, 1.0, 3.2}) {
    for (double x : {0.5, 2.0, 10.0, 30.0}) {
      const double scaled = bessel_k_scaled(nu, x);
      const double unscaled = bessel_k(nu, x);
      EXPECT_NEAR(scaled, unscaled * std::exp(x), 1e-11 * scaled);
    }
  }
}

TEST(Bessel, ScaledStableForLargeArgument) {
  // Unscaled underflows near x ~ 705; the scaled variant stays O(sqrt(pi/2x)).
  const double v = bessel_k_scaled(0.5, 900.0);
  EXPECT_NEAR(v, std::sqrt(kPi / 1800.0), 1e-12);
}

TEST(Bessel, MonotoneDecreasingInArgument) {
  double prev = bessel_k(0.44, 0.05);
  for (double x = 0.1; x < 20.0; x += 0.37) {
    const double cur = bessel_k(0.44, x);
    EXPECT_LT(cur, prev) << "x = " << x;
    prev = cur;
  }
}

TEST(Bessel, IncreasingInOrder) {
  // For fixed x, K_nu increases with nu >= 0.
  for (double x : {0.5, 1.0, 4.0}) {
    double prev = bessel_k(0.1, x);
    for (double nu = 0.3; nu < 5.0; nu += 0.4) {
      const double cur = bessel_k(nu, x);
      EXPECT_GT(cur, prev) << "nu=" << nu << " x=" << x;
      prev = cur;
    }
  }
}

TEST(Bessel, RejectsBadArguments) {
  EXPECT_THROW(bessel_k(0.5, 0.0), InvalidArgument);
  EXPECT_THROW(bessel_k(0.5, -1.0), InvalidArgument);
  EXPECT_THROW(bessel_k(std::nan(""), 1.0), InvalidArgument);
  // The fit's entry checks its argument on both sides of the switch at 2.
  const BesselKFit fit(0.8);
  for (double bad : {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()})
    EXPECT_THROW((void)bessel_k_scaled(fit, bad), InvalidArgument) << "x = " << bad;
}

/// Bit patterns of K recorded from the joint I/K routine the K-only path
/// replaced. x spans both sides of the Temme/CF2 switch at 2 and the
/// large-argument end; nu = 0.3/0.8/1.3/2.2 takes 0/1/1/2 upward recurrence
/// steps, with reduced orders of both signs.
struct GoldenBits {
  double nu, x;
  std::uint64_t k_scaled, k;
};

constexpr GoldenBits kGolden[] = {
    {0.3, 1e-06, 0x405d0a8b360a58a3, 0x405d0a894ecf7627},
    {0.3, 0.5, 0x3ff9c249cbece931, 0x3fef3f46a9b3853b},
    {0.3, 1.999, 0x3feb71825f175e6c, 0x3fbdbe012612831f},
    {0.3, 2.0, 0x3feb6fd9e95ae2c4, 0x3fbdb49961f3b3e7},
    {0.3, 17.0, 0x3fd35d90be3e4143, 0x3e4ae6b734f4cf96},
    {0.3, 47.0, 0x3fc75c6386ab0e64, 0x3b8ab5fd7cef7dbf},
    {0.3, 699.0, 0x3fa844b7af99078e, 0x00a1d774c65139a6},
    {0.8, 1e-06, 0x40ef399cf7ee4b35, 0x40ef399aec0fc949},
    {0.8, 0.5, 0x4001d13f8d906302, 0x3ff59d12e63292b0},
    {0.8, 1.999, 0x3feebc5983f5691f, 0x3fc0a7b9110cf7ea},
    {0.8, 2.0, 0x3feeba1ded9eefb4, 0x3fc0a240ace840f2},
    {0.8, 17.0, 0x3fd3ac245f279e15, 0x3e4b53de7b6419b6},
    {0.8, 47.0, 0x3fc77f1db189130c, 0x3b8addb2869b170b},
    {0.8, 699.0, 0x3fa8472913e08a28, 0x00a1d9408c986afa},
    {1.3, 1e-06, 0x41909f199982bb5e, 0x41909f1882a6092c},
    {1.3, 0.5, 0x400fca53a07ed0f3, 0x40034825074e4269},
    {1.3, 1.999, 0x3ff3054037e7aefe, 0x3fc49d2043d682ef},
    {1.3, 2.0, 0x3ff303710f7ec4f1, 0x3fc495e48b0e02b6},
    {1.3, 17.0, 0x3fd445907f7201b0, 0x3e4c28fe3a8b6429},
    {1.3, 47.0, 0x3fc7c1f8731201a2, 0x3b8b2a2393b08f1f},
    {1.3, 699.0, 0x3fa84bd3b09de0b0, 0x00a1dcaecd6b106f},
    {2.2, 1e-06, 0x42c23e5c0f8fc161, 0x42c23e5add7c299e},
    {2.2, 0.5, 0x40323fd8a502bff0, 0x4026233c6a5adbc2},
    {2.2, 1.999, 0x4001a592199e7c07, 0x3fd31ffcbad05af2},
    {2.2, 2.0, 0x4001a2cda71df2c8, 0x3fd31818f5cf00ae},
    {2.2, 17.0, 0x3fd62de94e90d2b7, 0x3e4ecf5f26ec62f6},
    {2.2, 47.0, 0x3fc88efe7f39a884, 0x3b8c14903e575a81},
    {2.2, 699.0, 0x3fa859d8e8901a16, 0x00a1e6fd84c32209},
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Bessel, GoldenBitsUnchanged) {
  for (const GoldenBits& g : kGolden) {
    EXPECT_EQ(bits(bessel_k_scaled(g.nu, g.x)), g.k_scaled) << "nu=" << g.nu << " x=" << g.x;
    EXPECT_EQ(bits(bessel_k(g.nu, g.x)), g.k) << "nu=" << g.nu << " x=" << g.x;
  }
}

TEST(Bessel, PrebuiltOrderIsBitIdentical) {
  // Below 2 the fit's entry is Temme's series, as the free function.
  for (const GoldenBits& g : kGolden) {
    if (g.x < 2.0) {
      EXPECT_EQ(bits(bessel_k_scaled(BesselKFit(g.nu), g.x)), g.k_scaled)
          << "nu=" << g.nu << " x=" << g.x;
    }
  }
  // K_{-nu} = K_nu holds for the prebuilt constants too.
  EXPECT_EQ(bits(bessel_k_scaled(BesselKFit(-0.8), 1.5)), bits(bessel_k_scaled(0.8, 1.5)));
}

/// exp(x) K_nu(x) in long double, independent of the library: Steed's CF2
/// for the reduced-order pair, then the upward recurrence (x >= 2).
long double k_scaled_long_double(double nu, double x) {
  const int nl = static_cast<int>(nu + 0.5);
  const long double xmu = static_cast<long double>(nu) - nl;
  const long double xl = x;
  const long double a1 = 0.25L - xmu * xmu;
  long double bb = 2.0L * (1.0L + xl);
  long double dd = 1.0L / bb;
  long double delh = dd, hh = dd, q1 = 0.0L, q2 = 1.0L, qq = a1, cc = a1, aa = -a1;
  long double s = 1.0L + qq * delh;
  for (int i = 2; i < 10000; ++i) {
    aa -= 2 * (i - 1);
    cc = -aa * cc / i;
    const long double qnew = (q1 - bb * q2) / aa;
    q1 = q2;
    q2 = qnew;
    qq += cc * qnew;
    bb += 2.0L;
    dd = 1.0L / (bb + aa * dd);
    delh = (bb * dd - 1.0L) * delh;
    const long double dels = qq * delh;
    hh += delh;
    s += dels;
    if (std::fabs(dels / s) < std::numeric_limits<long double>::epsilon()) break;
  }
  long double kmu = std::sqrt(3.141592653589793238462643383279502884L / (2.0L * xl)) / s;
  long double k1 = kmu * (xmu + xl + 0.5L - a1 * hh) / xl;
  for (int i = 1; i <= nl; ++i) {
    const long double next = 2.0L * (xmu + i) / xl * k1 + kmu;
    kmu = k1;
    k1 = next;
  }
  return kmu;
}

/// 400 log-spaced points over [2, 700], both ends included.
std::vector<double> fit_grid() {
  std::vector<double> x;
  for (int i = 0; i < 400; ++i) x.push_back(2.0 * std::pow(350.0, i / 399.0));
  x.front() = 2.0;
  x.back() = 700.0;
  return x;
}

/// The largest relative error of k(x) against the long double oracle.
template <typename K>
double max_rel_error(double nu, const std::vector<double>& grid, K k) {
  double worst = 0.0;
  for (double x : grid) {
    const long double ref = k_scaled_long_double(nu, x);
    worst = std::max(worst, static_cast<double>(std::fabs((k(x) - ref) / ref)));
  }
  return worst;
}

TEST(BesselKFit, MatchesLongDoubleCf2) {
  const std::vector<double> grid = fit_grid();
  // nu = 1 + mu sweeps every reduced order mu in [-1/2, 1/2] in steps of
  // 0.01 (nu = 1.5 reduces to mu = -1/2 with two steps up), each with the
  // recurrence; the fit depends on nu only through mu.
  std::vector<double> orders;
  for (int k = -50; k <= 50; ++k) orders.push_back(1.0 + 0.01 * k);
  for (double nu : {0.05, 0.8, 3.5, 4.9}) orders.push_back(nu);
  for (double nu : orders) {
    const BesselKFit fit(nu);
    const double err = max_rel_error(nu, grid, [&](double x) { return bessel_k_scaled(fit, x); });
    EXPECT_LE(err, 1e-15) << "nu=" << nu;
  }
  // At large orders the recurrence's rounding dominates: the fit is no
  // worse than the double CF2 it replaces.
  for (double nu : {10.3, 20.7, 30.0}) {
    const BesselKFit fit(nu);
    const double err = max_rel_error(nu, grid, [&](double x) { return bessel_k_scaled(fit, x); });
    const double cf2 = max_rel_error(nu, grid, [&](double x) { return bessel_k_scaled(nu, x); });
    EXPECT_LE(err, cf2) << "nu=" << nu;
  }
}

TEST(Bessel, OrderRejectsNonFinite) {
  EXPECT_THROW(BesselKOrder(std::nan("")), InvalidArgument);
  EXPECT_THROW(BesselKOrder(std::numeric_limits<double>::infinity()), InvalidArgument);
  EXPECT_THROW(BesselKFit(std::nan("")), InvalidArgument);
}

}  // namespace
}  // namespace gsx::mathx
