#include "mathx/bessel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/isa.hpp"

namespace gsx::mathx {

namespace {

#define GSX_ALWAYS_INLINE inline __attribute__((always_inline))

#if defined(__x86_64__)
#define GSX_X86_DISPATCH 1
#else
#define GSX_X86_DISPATCH 0
#endif

constexpr double kEps = 1.0e-16;
constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;
constexpr int kMaxIter = 10000;
constexpr double kXMin = 2.0;  // series/continued-fraction switch point
constexpr double kPi = 3.141592653589793238462643383279502884;

/// Chebyshev series evaluation on [a, b].
double chebev(double a, double b, const double* c, int m, double x) {
  double d = 0.0, dd = 0.0;
  const double y = (2.0 * x - a - b) / (b - a);
  const double y2 = 2.0 * y;
  for (int j = m - 1; j >= 1; --j) {
    const double sv = d;
    d = y2 * d - dd + c[j];
    dd = sv;
  }
  return y * d - dd + 0.5 * c[0];
}

/// K_xmu(x) and K_{xmu+1}(x) at the reduced order.
struct KPair {
  double kmu;
  double k1;
};

void require_argument(double x) {
  GSX_REQUIRE(std::isfinite(x) && x > 0.0, "bessel: x must be positive and finite");
}

/// W doubles in one vector register (GCC/Clang vector extension).
/// Arithmetic and comparisons act lane by lane, a scalar operand is
/// broadcast, and `mask ? a : b` selects per lane.
template <int W>
struct LaneVec {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// `v` in every lane of V (s - 0 is exact for every s, signed zero too).
template <typename V>
GSX_ALWAYS_INLINE void splat(V& out, double v) {
  out = v - V{};
}

GSX_ALWAYS_INLINE void lane_fabs(double& v) { v = std::fabs(v); }

template <typename V>
GSX_ALWAYS_INLINE void lane_fabs(V& v) {
  typedef long long Bits __attribute__((vector_size(sizeof(V))));
  v = reinterpret_cast<V>(reinterpret_cast<Bits>(v) & 0x7fffffffffffffffLL);
}

GSX_ALWAYS_INLINE bool none(bool active) { return !active; }

template <typename M>
GSX_ALWAYS_INLINE bool none(const M& active) {
  long long any = 0;
  for (std::size_t k = 0; k < sizeof(M) / sizeof(any); ++k) any |= active[k];
  return any == 0;
}

GSX_ALWAYS_INLINE void lane_sqrt(double& v) { v = std::sqrt(v); }

template <typename V>
GSX_ALWAYS_INLINE void lane_sqrt(V& v) {
  for (std::size_t k = 0; k < sizeof(V) / sizeof(double); ++k) v[k] = std::sqrt(v[k]);
}

/// Steed's CF2 for the reduced-order pair at x >= 2, for every lane of V in
/// lockstep (V = double is the one-lane, scalar path). It yields
/// exp(x)-scaled values; `scale` multiplies both (exp(-x) unscales them).
/// aa and cc depend only on the iteration, so they stay scalars. A lane
/// whose own test has stopped keeps its hh and s while the others go on, so
/// each lane ends with the values the scalar loop would break with.
template <typename V>
GSX_ALWAYS_INLINE void cf2_pair(const BesselKOrder& o, const V& x, const V& scale, V& kmu,
                                V& k1) {
  V bb = 2.0 * (1.0 + x);
  V dd = 1.0 / bb;
  V delh = dd;
  V hh = delh;
  V q1, q2, qq;
  splat(q1, 0.0);
  splat(q2, 1.0);
  const double a1 = 0.25 - o.xmu2;
  splat(qq, a1);
  double cc = a1;
  double aa = -a1;
  V s = 1.0 + qq * delh;
  auto active = x == x;  // every lane: x is finite
  int i = 2;
  for (; i <= kMaxIter; ++i) {
    aa -= 2 * (i - 1);
    cc = -aa * cc / i;
    const V qnew = (q1 - bb * q2) / aa;
    q1 = q2;
    q2 = qnew;
    qq += cc * qnew;
    bb += 2.0;
    dd = 1.0 / (bb + aa * dd);
    delh = (bb * dd - 1.0) * delh;
    const V dels = qq * delh;
    hh = active ? hh + delh : hh;
    s = active ? s + dels : s;
    V ratio = dels / s;
    lane_fabs(ratio);
    active = (ratio < kEps) ? decltype(active){} : active;
    if (none(active)) break;
  }
  GSX_REQUIRE(i <= kMaxIter, "bessel: CF2 failed to converge");
  hh = a1 * hh;
  V root = kPi / (2.0 * x);
  lane_sqrt(root);
  kmu = root * scale / s;
  k1 = kmu * (o.xmu + x + 0.5 - hh) * (1.0 / x);
}

/// Upward recurrence in the order, from the reduced pair to K_nu in kmu.
template <typename V>
GSX_ALWAYS_INLINE void raise_order(const BesselKOrder& o, const V& x, V& kmu, V& k1) {
  const V xi2 = 2.0 * (1.0 / x);
  for (int i = 1; i <= o.nl; ++i) {
    const V rktemp = (o.xmu + i) * xi2 * k1 + kmu;
    kmu = k1;
    k1 = rktemp;
  }
}

/// Temme's series (x < 2) or Steed's CF2 (x >= 2) for the reduced-order
/// pair; with scaled=true both values are multiplied by exp(x).
KPair k_reduced(const BesselKOrder& o, double x, bool scaled) {
  const double xmu = o.xmu;
  const double xmu2 = o.xmu2;
  const double xi = 1.0 / x;
  const double xi2 = 2.0 * xi;

  double rkmu, rk1;
  if (x < kXMin) {
    // Temme's series for K_xmu and K_{xmu+1}.
    const double x2 = 0.5 * x;
    double dlog = -std::log(x2);
    double e = xmu * dlog;
    const double fact2 = (std::fabs(e) < kEps) ? 1.0 : std::sinh(e) / e;
    double ff = o.fct * (o.gam1 * std::cosh(e) + o.gam2 * fact2 * dlog);
    double sum = ff;
    e = std::exp(e);
    double p = 0.5 * e / o.gampl;
    double q = 0.5 / (e * o.gammi);
    double cc = 1.0;
    const double d2 = x2 * x2;
    double sum1 = p;
    int i = 1;
    for (; i <= kMaxIter; ++i) {
      ff = (i * ff + p + q) / (i * i - xmu2);
      cc *= d2 / i;
      p /= (i - xmu);
      q /= (i + xmu);
      const double del = cc * ff;
      sum += del;
      const double del1 = cc * (p - i * ff);
      sum1 += del1;
      if (std::fabs(del) < std::fabs(sum) * kEps) break;
    }
    GSX_REQUIRE(i <= kMaxIter, "bessel: Temme series failed to converge");
    rkmu = sum;
    rk1 = sum1 * xi2;
    if (scaled) {
      const double ex = std::exp(x);
      rkmu *= ex;
      rk1 *= ex;
    }
  } else {
    cf2_pair(o, x, scaled ? 1.0 : std::exp(-x), rkmu, rk1);
  }
  return KPair{rkmu, rk1};
}

/// K_nu(x) (exp(x)-scaled if `scaled`): the reduced-order pair, then the
/// upward recurrence in the order.
double k_only(const BesselKOrder& o, double x, bool scaled) {
  require_argument(x);
  KPair k = k_reduced(o, x, scaled);
  raise_order(o, x, k.kmu, k.k1);
  return k.kmu;
}

/// Elements gathered per pass of the span entry. CF2 arguments wait in a
/// stack buffer, with their positions, until they fill whole lane groups.
constexpr std::size_t kChunk = 256;

/// exp(x) K_nu(x) over a span: Temme elements one at a time, CF2 elements
/// W at a time in lockstep (V holds W doubles). The last group of a chunk
/// pads its spare lanes with a copy of its last argument and drops their
/// results.
template <typename V>
GSX_ALWAYS_INLINE void k_scaled_span(const BesselKOrder& o, std::span<const double> x,
                                     std::span<double> out) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  std::array<double, kChunk + W> xs;
  std::array<double, kChunk + W> ks;
  std::array<std::size_t, kChunk> at;
  V one;
  splat(one, 1.0);
  for (std::size_t c0 = 0; c0 < x.size(); c0 += kChunk) {
    const std::size_t c1 = std::min(x.size(), c0 + kChunk);
    std::size_t m = 0;
    for (std::size_t i = c0; i < c1; ++i) {
      if (x[i] < kXMin) {
        out[i] = k_only(o, x[i], /*scaled=*/true);
      } else {
        require_argument(x[i]);
        xs[m] = x[i];
        at[m++] = i;
      }
    }
    for (std::size_t t = m; t % W != 0; ++t) xs[t] = xs[m - 1];
    for (std::size_t t = 0; t < m; t += W) {
      V xv, kmu, k1;
      std::memcpy(&xv, &xs[t], sizeof xv);
      cf2_pair(o, xv, one, kmu, k1);
      raise_order(o, xv, kmu, k1);
      std::memcpy(&ks[t], &kmu, sizeof kmu);
    }
    for (std::size_t t = 0; t < m; ++t) out[at[t]] = ks[t];
  }
}

void k_scaled_portable(const BesselKOrder& o, std::span<const double> x,
                       std::span<double> out) {
  k_scaled_span<LaneVec<2>::type>(o, x, out);
}

#if GSX_X86_DISPATCH
// No FMA in either target list; -ffp-contract=off keeps GCC from fusing
// where the target would allow it (AVX-512F implies FMA in GCC).
__attribute__((target("avx2"))) void k_scaled_avx2(const BesselKOrder& o,
                                                   std::span<const double> x,
                                                   std::span<double> out) {
  k_scaled_span<LaneVec<4>::type>(o, x, out);
}

__attribute__((target("avx512f"))) void k_scaled_avx512(const BesselKOrder& o,
                                                       std::span<const double> x,
                                                       std::span<double> out) {
  k_scaled_span<LaneVec<8>::type>(o, x, out);
}
#endif

}  // namespace

BesselKOrder::BesselKOrder(double nu) {
  GSX_REQUIRE(std::isfinite(nu), "bessel: nu must be finite");
  nu = std::fabs(nu);  // K_{-nu} = K_nu
  nl = static_cast<int>(nu + 0.5);
  xmu = nu - nl;
  xmu2 = xmu * xmu;
  const double pimu = kPi * xmu;
  fct = (std::fabs(pimu) < kEps) ? 1.0 : pimu / std::sin(pimu);
  // Chebyshev fits for the Gamma combinations of Temme's series, valid for
  // |xmu| <= 1/2 (Numerical Recipes "beschb").
  static constexpr std::array<double, 7> c1 = {
      -1.142022680371168e0, 6.5165112670737e-3,  3.087090173086e-4,
      -3.4706269649e-6,     6.9437664e-9,        3.67795e-11,
      -1.356e-13};
  static constexpr std::array<double, 8> c2 = {
      1.843740587300905e0, -7.68528408447867e-2, 1.2719271366546e-3,
      -4.9717367042e-6,    -3.31261198e-8,       2.423096e-10,
      -1.702e-13,          -1.49e-15};
  const double xx = 8.0 * xmu * xmu - 1.0;
  gam1 = chebev(-1.0, 1.0, c1.data(), static_cast<int>(c1.size()), xx);
  gam2 = chebev(-1.0, 1.0, c2.data(), static_cast<int>(c2.size()), xx);
  gampl = gam2 - xmu * gam1;
  gammi = gam2 + xmu * gam1;
}

double bessel_k(double nu, double x) {
  return k_only(BesselKOrder(nu), x, /*scaled=*/false);
}

double bessel_k_scaled(double nu, double x) {
  return k_only(BesselKOrder(nu), x, /*scaled=*/true);
}

double bessel_k_scaled(const BesselKOrder& order, double x) {
  return k_only(order, x, /*scaled=*/true);
}

void bessel_k_scaled(const BesselKOrder& order, std::span<const double> x,
                     std::span<double> out) {
  GSX_REQUIRE(x.size() == out.size(), "bessel_k_scaled: x and out differ in length");
  switch (active_isa()) {
#if GSX_X86_DISPATCH
    case Isa::Avx512: return k_scaled_avx512(order, x, out);
    case Isa::Avx2: return k_scaled_avx2(order, x, out);
#endif
    default: return k_scaled_portable(order, x, out);
  }
}

double bessel_i(double nu, double x) {
  GSX_REQUIRE(nu >= 0.0, "bessel_i: order must be non-negative");
  require_argument(x);
  const BesselKOrder o(nu);
  const double xi = 1.0 / x;
  const double xi2 = 2.0 * xi;

  // CF1 for I'_nu/I_nu.
  double h = nu * xi;
  if (h < kFpMin) h = kFpMin;
  double b = xi2 * nu;
  double d = 0.0;
  double c = h;
  int iter = 0;
  for (; iter < kMaxIter; ++iter) {
    b += xi2;
    d = 1.0 / (b + d);
    c = b + 1.0 / c;
    const double del = c * d;
    h = del * h;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  GSX_REQUIRE(iter < kMaxIter, "bessel: CF1 failed to converge (x too large for order?)");

  // Downward recurrence of an unnormalised I from order nu to xmu.
  double ril = kFpMin;
  double ripl = h * ril;
  const double ril1 = ril;
  double fact = nu * xi;
  for (int l = o.nl; l >= 1; --l) {
    const double ritemp = fact * ril + ripl;
    fact -= xi;
    ripl = fact * ritemp + ril;
    ril = ritemp;
  }
  const double f = ripl / ril;  // I'_xmu/I_xmu

  // I_xmu from the Wronskian with the reduced-order K pair, rescaled to nu.
  const KPair k = k_reduced(o, x, /*scaled=*/false);
  const double rkmup = o.xmu * xi * k.kmu - k.k1;
  const double rimu = xi / (f * k.kmu - rkmup);
  return (rimu * ril1) / ril;
}

}  // namespace gsx::mathx
