// Vector-lane building blocks for per-entry kernels that must give the same
// bits at every lane width.
//
// Every routine here is a template over the lane count W. W = 1 works on a
// plain double; W = 2, 4 and 8 work on a GCC vector of W doubles, whose
// arithmetic acts lane by lane with a scalar operand broadcast. Each lane
// performs the one-lane instance's IEEE operations in the same order and no
// lane depends on another, so W entries evaluated at once equal the same
// entries evaluated one at a time, bit for bit. Callers pick W at run time
// from common/isa.hpp (8 with AVX-512, 4 with AVX2, 2 otherwise) through
// target-attributed wrappers, and use W = 1 for their scalar entry.
//
// That identity needs every source that includes this header compiled with
// GSX_LANE_OPTIONS (root CMakeLists.txt). Above all -ffp-contract=off: GCC's
// C++ default, -ffp-contract=fast, would fuse a * b + c into one rounding
// in the wide instances, whose AVX-512 target (or -march=native) has FMA,
// but not in the portable one.
//
//   lane_exp, lane_log  exp and log within 1 ulp: a Cody-Waite reduction by
//                       ln 2 and a rational/polynomial kernel (the fdlibm
//                       coefficients). The exponent moves in and out of the
//                       bit pattern through the 1.5 * 2^52 shift, never an
//                       int64 <-> double conversion: AVX2 and AVX-512F have
//                       none and GCC would emulate them one lane at a time.
//   lane_distance       sqrt(dx^2 + dy^2), the arithmetic of
//                       mathx::euclidean2d, with the lanes it must hand to
//                       std::hypot.
//   fit_k_scaled        exp(x) K_nu(x) from a BesselKFit (Clenshaw's
//                       recurrence), x >= 2.
#pragma once

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "mathx/bessel.hpp"

#define GSX_LANE_INLINE inline __attribute__((always_inline))

namespace gsx::mathx {

/// The lane types at width W: D holds the values, U their bit patterns and
/// M the result of a comparison (all bits set where it holds).
template <int W>
struct Lanes {
  typedef double D __attribute__((vector_size(W * sizeof(double))));
  typedef std::uint64_t U __attribute__((vector_size(W * sizeof(double))));
  typedef std::int64_t M __attribute__((vector_size(W * sizeof(double))));
};
template <>
struct Lanes<1> {
  using D = double;
  using U = std::uint64_t;
  using M = bool;
};
template <int W>
using LaneD = typename Lanes<W>::D;
template <int W>
using LaneU = typename Lanes<W>::U;
template <int W>
using LaneM = typename Lanes<W>::M;

/// W lanes loaded from / stored to W consecutive doubles (no alignment
/// needed).
template <int W>
GSX_LANE_INLINE LaneD<W> lane_load(const double* p) {
  LaneD<W> v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <int W>
GSX_LANE_INLINE void lane_store(double* p, LaneD<W> v) {
  std::memcpy(p, &v, sizeof v);
}

/// True if the comparison held in any lane.
template <int W>
GSX_LANE_INLINE bool lane_any(LaneM<W> m) {
  if constexpr (W == 1) {
    return m;
  } else {
    std::int64_t acc = 0;
    for (int k = 0; k < W; ++k) acc |= m[k];
    return acc != 0;
  }
}

/// Square root in every lane; -fno-math-errno makes it one vector
/// instruction.
template <int W>
GSX_LANE_INLINE LaneD<W> lane_sqrt(LaneD<W> v) {
  if constexpr (W == 1) {
    return std::sqrt(v);
  } else {
    for (int k = 0; k < W; ++k) v[k] = std::sqrt(v[k]);
    return v;
  }
}

namespace lane_detail {

constexpr double kShift = 0x1.8p52;  ///< x + kShift rounds x to an integer in the low bits
constexpr std::uint64_t kShiftBits = 0x4338000000000000ULL;
constexpr double kLn2Hi = 0x1.62e42feep-1;  ///< ln 2 to 32 bits: k * kLn2Hi is exact
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;  ///< ln 2 - kLn2Hi
constexpr double kInvLn2 = 0x1.71547652b82fep0;

}  // namespace lane_detail

/// exp(t) in every lane, within 1 ulp: subnormal results where exp(t) is
/// subnormal, exactly 0 below t = -745.14 and +inf above 709.79.
template <int W>
GSX_LANE_INLINE LaneD<W> lane_exp(LaneD<W> t) {
  using namespace lane_detail;
  using D = LaneD<W>;
  using U = LaneU<W>;
  // Past these the result is already 0 or +inf; clamping keeps k inside the
  // range the two scale factors below can represent.
  t = t < -746.0 ? -746.0 : t;
  t = t > 710.0 ? 710.0 : t;
  // t = k ln 2 + r, |r| <= ln 2 / 2: k = round(t / ln 2) through the shift,
  // r = hi - lo exactly as far as kLn2Hi reaches (Cody-Waite).
  const D shifted = t * kInvLn2 + kShift;
  const U k = std::bit_cast<U>(shifted) - kShiftBits;  // two's complement
  const D kd = shifted - kShift;
  const D hi = t - kd * kLn2Hi;
  const D lo = kd * kLn2Lo;
  const D r = hi - lo;
  // exp(r) = 1 + r + r c / (2 - c), c the fdlibm minimax polynomial in r^2.
  const D rr = r * r;
  const D c =
      r - rr * (0x1.555555555553ep-3 +
                rr * (-0x1.6c16c16bebd93p-9 +
                      rr * (0x1.1566aaf25de2cp-14 +
                            rr * (-0x1.bbd41c5d26bf1p-20 + rr * 0x1.6376972bea4d0p-25))));
  const D y = 1.0 + ((r * c / (2.0 - c) - lo) + hi);
  // y * 2^k as y * 2^(k -/+ 64) * 2^(+/-64): both factors stay normal for
  // every clamped k, the first product is exact, and the second rounds once
  // when the result is subnormal.
  const U neg = k >> 63;  // 1 where k < 0
  const D s1 = std::bit_cast<D>((k + (959 + (neg << 7))) << 52);
  const D s2 = std::bit_cast<D>((1087 - (neg << 7)) << 52);
  return y * s1 * s2;
}

/// log(x) in every lane for positive finite x (subnormals included), within
/// 1 ulp.
template <int W>
GSX_LANE_INLINE LaneD<W> lane_log(LaneD<W> x) {
  using namespace lane_detail;
  using D = LaneD<W>;
  using U = LaneU<W>;
  constexpr std::uint64_t kMantissa = 0x000fffffffffffffULL;
  // A subnormal x is scaled into the normal range first.
  const LaneM<W> sub = x < DBL_MIN;
  const D xs = sub ? x * 0x1p54 : x;
  // x = 2^k m with m in [sqrt(2)/2, sqrt(2)): the mantissa field carries
  // into bit 52 exactly when its top 20 bits reach those of sqrt(2), and
  // then m takes the exponent of [1/2, 1) and k one more.
  const U b = std::bit_cast<U>(xs);
  const U carry = ((b & kMantissa) + 0x00095f6400000000ULL) & (1ULL << 52);
  const D m = std::bit_cast<D>((b & kMantissa) | (0x3ff0000000000000ULL ^ carry));
  D kd = std::bit_cast<D>(((b >> 52) + (carry >> 52)) | 0x4330000000000000ULL) -
         (0x1p52 + 1023.0);
  kd = sub ? kd - 54.0 : kd;
  // log(1 + f) = f - f^2/2 + s (f^2/2 + R(s^2)), s = f / (2 + f), R the
  // fdlibm minimax polynomial.
  const D f = m - 1.0;
  const D hfsq = 0.5 * f * f;
  const D s = f / (2.0 + f);
  const D z = s * s;
  const D w = z * z;
  const D t1 =
      w * (0x1.999999997fa04p-2 + w * (0x1.c71c51d8e78afp-3 + w * 0x1.39a09d078c69fp-3));
  const D t2 =
      z * (0x1.5555555555593p-1 +
           w * (0x1.2492494229359p-2 + w * (0x1.7466496cb03dep-3 + w * 0x1.2f112df3e5244p-3)));
  const D rr = t2 + t1;
  return s * (hfsq + rr) + kd * kLn2Lo - hfsq + f + kd * kLn2Hi;
}

/// sqrt(dx^2 + dy^2) in every lane. `needs_hypot` is set in the lanes where
/// that sum left the normal range with a nonzero difference: it underflowed
/// (separations below ~1.5e-154, where it could even reach 0) or
/// overflowed. Those lanes take std::hypot(dx, dy) instead; see
/// mathx::euclidean2d.
template <int W>
GSX_LANE_INLINE LaneD<W> lane_distance(LaneD<W> dx, LaneD<W> dy, LaneM<W>& needs_hypot) {
  const LaneD<W> s = dx * dx + dy * dy;
  needs_hypot = ((s < DBL_MIN) & ((dx != 0.0) | (dy != 0.0))) | (s > DBL_MAX);
  return lane_sqrt<W>(s);
}

/// Which of the fit's two series an order reads: g0 alone below nu = 1/2
/// (no recurrence step), g1 alone from 1/2 to 3/2 (one step), both above.
enum class FitSeries { G0, G1, Both };

[[nodiscard]] inline FitSeries fit_series(const BesselKFit& f) noexcept {
  return f.order.nl == 0 ? FitSeries::G0 : f.order.nl == 1 ? FitSeries::G1 : FitSeries::Both;
}

/// exp(x) K_nu(x) from the fit for G registers of W lanes, x >= 2 in every
/// lane, reading the series S names (Both serves every order, the others
/// only the orders fit_series assigns them; the result is the same bits).
/// The groups only interleave independent dependency chains.
template <int W, int G, FitSeries S = FitSeries::Both>
GSX_LANE_INLINE void fit_k_scaled(const BesselKFit& f, const LaneD<W> (&x)[G],
                                  LaneD<W> (&k)[G]) {
  using D = LaneD<W>;
  constexpr bool kG0 = S != FitSeries::G1;
  constexpr bool kG1 = S != FitSeries::G0;
  D xi[G], u[G], u2[G], b0[G], p0[G], b1[G], p1[G];
  for (int g = 0; g < G; ++g) {
    xi[g] = 1.0 / x[g];
    u[g] = 4.0 * xi[g] - 1.0;
    u2[g] = 2.0 * u[g];
    b0[g] = p0[g] = b1[g] = p1[g] = D{};
  }
  // Clenshaw: b_j = 2u b_{j+1} - b_{j+2} + c_j, grouped so that only the
  // multiply and one add wait on the step before.
  for (int j = BesselKFit::kTerms - 1; j >= 1; --j) {
    for (int g = 0; g < G; ++g) {
      if constexpr (kG0) {
        const D n0 = u2[g] * b0[g] + (f.c0[j] - p0[g]);
        p0[g] = b0[g];
        b0[g] = n0;
      }
      if constexpr (kG1) {
        const D n1 = u2[g] * b1[g] + (f.c1[j] - p1[g]);
        p1[g] = b1[g];
        b1[g] = n1;
      }
    }
  }
  for (int g = 0; g < G; ++g) {
    const D root = lane_sqrt<W>(xi[g]);
    if constexpr (S == FitSeries::G0) {
      k[g] = (u[g] * b0[g] + (f.c0[0] - p0[g])) * root;
    } else if constexpr (S == FitSeries::G1) {
      k[g] = (u[g] * b1[g] + (f.c1[0] - p1[g])) * root;
    } else {
      D kmu = u[g] * b0[g] + (f.c0[0] - p0[g]);
      D k1 = u[g] * b1[g] + (f.c1[0] - p1[g]);
      // Up from (K_mu, K_{mu+1}) to K_{mu+nl} in k1, dividing by x at each
      // step: a rounded 2/x shared by all steps would add up its error.
      for (int i = 1; i < f.order.nl; ++i) {
        const D next = (2.0 * (f.order.xmu + i)) / x[g] * k1 + kmu;
        kmu = k1;
        k1 = next;
      }
      k[g] = (f.order.nl == 0 ? kmu : k1) * root;
    }
  }
}

}  // namespace gsx::mathx
