// Modified Bessel function K_nu for real order nu.
//
// The Matérn covariance C(r) = sigma^2 * 2^{1-nu}/Gamma(nu) * (r)^nu * K_nu(r)
// requires K_nu for arbitrary real smoothness nu, evaluated O(n^2) times
// during covariance-matrix generation, always at one nu per matrix.
//
// The free functions (bessel_k, bessel_k_scaled) follow the K half of the
// classical Temme/Steed scheme (Numerical Recipes "bessik"): Temme's series
// for x < 2 or Steed's second continued fraction (CF2) for x >= 2 gives K_mu
// and K_{mu+1} at the reduced order mu = nu - round(nu) in [-1/2, 1/2]; the
// upward order recurrence then reaches nu. They are the oracles the tests
// hold BesselKFit to. The terms that depend on nu alone (the reduced order,
// the Gamma-function Chebyshev fits and the reflection factor of Temme's
// series) live in BesselKOrder. The free functions' bits are fixed: tests
// compare them with recorded tables.
//
// BesselKFit is the many-x path. Each CF2 step depends on the one before and
// makes three divisions, and CF2 takes 11-80 steps. Since nu is fixed while
// a matrix is assembled, the fit replaces CF2 above x = 2 by two Chebyshev
// series built once per order,
//   g0(u) = sqrt(x) e^x K_mu(x),  g1(u) = sqrt(x) e^x K_{mu+1}(x),
//   u = 4/x - 1 in (-1, 1],
// each interpolated at kTerms Chebyshev nodes where CF2 runs in long double.
// An entry x >= 2 then costs one division (1/x), Clenshaw's recurrence in u
// for both series, the upward order recurrence from K_{mu+1} to K_nu, and a
// multiply by sqrt(1/x): a fixed trip count and no data-dependent branch.
// The recurrence divides by x at each of its round(nu) - 1 steps (none below
// nu = 1.5) instead of sharing one rounded 2/x, whose error would grow with
// the number of steps. Entries x < 2 take Temme's series, bit-identical to
// bessel_k_scaled. The fit depends on nu only through mu; against a long
// double CF2 on x in [2, 700] its relative error stays within 1e-15 over mu
// in [-1/2, 1/2] and up to nu = 5, and below the double CF2's at larger nu
// (tests/test_bessel.cpp checks both; CF2 itself reaches 2e-15 to 3e-15).
//
// The Clenshaw pass is one template in mathx/lanes.hpp, over the lane count:
// bessel_k_scaled(fit, x) runs its one-lane instance, and the Matérn
// assembly (geostat/covariance.cpp) runs it 8, 4 or 2 lanes at a time at
// max(x, 2) for every entry, reading only the series the order needs (g0
// below nu = 1/2, g1 up to 3/2). Every lane performs the scalar entry's IEEE
// operations in the same order, so the lanes equal bessel_k_scaled(fit, x)
// bit for bit at x >= 2, at every width. That needs each source that
// instantiates it compiled with -ffp-contract=off (see mathx/lanes.hpp).
#pragma once

#include <array>

namespace gsx::mathx {

/// The per-order constants of a K_nu evaluation. A default-constructed
/// value is a placeholder (order 0's constants are not filled in); build a
/// usable one with BesselKOrder(nu).
struct BesselKOrder {
  BesselKOrder() = default;
  /// Fix the constants for order nu (K_{-nu} = K_nu). Throws
  /// InvalidArgument for non-finite nu.
  explicit BesselKOrder(double nu);

  int nl = 0;          ///< upward recurrence steps, round(|nu|)
  double xmu = 0.0;    ///< reduced order |nu| - nl, in [-1/2, 1/2]
  double xmu2 = 0.0;   ///< xmu^2
  double fct = 1.0;    ///< pi*xmu / sin(pi*xmu) (Temme's series)
  double gam1 = 0.0;   ///< [1/Gamma(1-xmu) - 1/Gamma(1+xmu)] / (2 xmu)
  double gam2 = 0.0;   ///< [1/Gamma(1-xmu) + 1/Gamma(1+xmu)] / 2
  double gampl = 0.0;  ///< 1/Gamma(1+xmu)
  double gammi = 0.0;  ///< 1/Gamma(1-xmu)
};

/// K_nu(x) for x > 0, any real nu (K_{-nu} = K_nu). Throws InvalidArgument
/// for x <= 0 or non-finite inputs. Relative accuracy ~1e-14 over the range
/// exercised by geostatistics (x in [1e-8, 700], nu in [0.01, 30]).
double bessel_k(double nu, double x);

/// exp(x) * K_nu(x): numerically stable for large x where K_nu underflows.
double bessel_k_scaled(double nu, double x);

/// The Chebyshev fit of exp(x) K_nu(x) above x = 2 for one order (see
/// above). A default-constructed value is a placeholder; build a usable one
/// with BesselKFit(nu), which runs CF2 in long double at kTerms nodes
/// (about 0.15 ms on one x86 core).
struct BesselKFit {
  static constexpr int kTerms = 24;

  BesselKFit() = default;
  /// Fit order nu. Throws InvalidArgument for non-finite nu.
  explicit BesselKFit(double nu);

  BesselKOrder order;  ///< Temme's series below 2 and the recurrence steps
  /// g0(u) = sum_j c0[j] T_j(u) and g1(u) = sum_j c1[j] T_j(u).
  std::array<double, kTerms> c0{};
  std::array<double, kTerms> c1{};
};

/// exp(x) * K_nu(x) for the fit's order: Temme's series for x < 2 (the
/// bits of bessel_k_scaled), the fit for x >= 2. Throws InvalidArgument
/// unless x is positive and finite.
double bessel_k_scaled(const BesselKFit& fit, double x);

}  // namespace gsx::mathx
