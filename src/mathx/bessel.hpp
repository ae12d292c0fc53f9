// Modified Bessel functions K_nu and I_nu for real order nu.
//
// The Matérn covariance C(r) = sigma^2 * 2^{1-nu}/Gamma(nu) * (r)^nu * K_nu(r)
// requires K_nu for arbitrary real smoothness nu, evaluated O(n^2) times
// during covariance-matrix generation. The implementation follows the
// classical Temme/Steed scheme (Numerical Recipes "bessik"), split by what
// each function needs:
//   - K (bessel_k, bessel_k_scaled): Temme's series for x < 2 or Steed's
//     second continued fraction (CF2) for x >= 2 gives K_mu and K_{mu+1} at
//     the reduced order mu = nu - round(nu); the upward order recurrence then
//     reaches nu. Nothing else runs: the per-element cost is independent of
//     I_nu.
//   - I (bessel_i): additionally runs Steed's first continued fraction (CF1)
//     for I'_nu/I_nu and a downward recurrence to mu, then recovers I_mu from
//     the Wronskian with the K pair above.
// The terms that depend on nu alone (the reduced order, the Gamma-function
// Chebyshev fits and the reflection factor of Temme's series) live in
// BesselKOrder, so a caller evaluating one order at many x builds them once.
//
// Span entry (bessel_k_scaled(order, x, out)): each CF2 step depends on the
// one before and divides, so one element at a time runs at the latency of
// that chain. The span entry instead runs CF2 for W elements in lockstep,
// one per vector lane: W = 8 with AVX-512, 4 with AVX2, 2 otherwise, picked
// at run time by common/isa.hpp (GSX_GEMM_ISA caps it). Each lane has its
// own convergence mask: once its test passes it keeps its sums while the
// other lanes go on. The loop is one template over the lane type, and its
// one-lane instance is the scalar path, so every lane performs the scalar
// loop's IEEE operations in the same order and the span entry is
// bit-identical to calling the scalar entry per element. Temme's series
// (x < 2) stays per element.
//
// That identity needs bessel.cpp compiled with -ffp-contract=off (set in
// src/mathx/CMakeLists.txt). GCC's C++ default is -ffp-contract=fast, and
// the AVX-512 target provides FMA, so it would fuse a * b + c into one
// rounding in the lane code but not in the scalar code, which changes bits.
#pragma once

#include <span>

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

/// exp(x) * K_nu(x) with the order's constants prebuilt; bit-identical to
/// bessel_k_scaled(nu, x) for order = BesselKOrder(nu).
double bessel_k_scaled(const BesselKOrder& order, double x);

/// out[i] = bessel_k_scaled(order, x[i]) for every i, bit for bit, with
/// the CF2 elements run in lockstep vector lanes (see above). Throws
/// InvalidArgument if the spans differ in length or any x[i] is not
/// positive and finite.
void bessel_k_scaled(const BesselKOrder& order, std::span<const double> x,
                     std::span<double> out);

/// Modified Bessel function of the first kind, I_nu(x), x > 0, nu >= 0.
/// (Exposed for testing the Wronskian identity
/// I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x.)
double bessel_i(double nu, double x);

}  // namespace gsx::mathx
