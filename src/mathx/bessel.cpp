#include "mathx/bessel.hpp"

#include <array>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "mathx/lanes.hpp"

namespace gsx::mathx {

namespace {

constexpr double kEps = 1.0e-16;
constexpr int kMaxIter = 10000;
constexpr double kXMin = 2.0;  // series/continued-fraction switch point
constexpr long double kPiL = 3.141592653589793238462643383279502884L;
constexpr double kPi = kPiL;

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

/// CF2's stopping threshold: 1e-16 in double (the recorded bits depend on
/// it), the type's epsilon in long double (the fit's nodes).
template <typename T>
constexpr T kCf2Eps = std::numeric_limits<T>::epsilon();
template <>
constexpr double kCf2Eps<double> = kEps;

/// Steed's CF2 for the reduced-order pair at x >= 2, in T = double or long
/// double. It yields exp(x)-scaled values; `scale` multiplies both (exp(-x)
/// unscales them).
template <typename T>
void cf2_pair(T xmu, T x, T scale, T& kmu, T& k1) {
  T bb = 2.0 * (1.0 + x);
  T dd = 1.0 / bb;
  T delh = dd;
  T hh = delh;
  T q1 = 0.0;
  T q2 = 1.0;
  const T a1 = 0.25 - xmu * xmu;
  T qq = a1;
  T cc = a1;
  T aa = -a1;
  T s = 1.0 + qq * delh;
  int i = 2;
  for (; i <= kMaxIter; ++i) {
    aa -= 2 * (i - 1);
    cc = -aa * cc / i;
    const T qnew = (q1 - bb * q2) / aa;
    q1 = q2;
    q2 = qnew;
    qq += cc * qnew;
    bb += 2.0;
    dd = 1.0 / (bb + aa * dd);
    delh = (bb * dd - 1.0) * delh;
    const T dels = qq * delh;
    hh += delh;
    s += dels;
    if (std::fabs(dels / s) < kCf2Eps<T>) break;
  }
  GSX_REQUIRE(i <= kMaxIter, "bessel: CF2 failed to converge");
  hh = a1 * hh;
  const T root = std::sqrt(static_cast<T>(kPiL) / (2.0 * x));
  kmu = root * scale / s;
  k1 = kmu * (xmu + x + 0.5 - hh) * (1.0 / x);
}

/// Upward recurrence in the order, from the reduced pair to K_nu in kmu.
void raise_order(const BesselKOrder& o, double x, double& kmu, double& k1) {
  const double xi2 = 2.0 * (1.0 / x);
  for (int i = 1; i <= o.nl; ++i) {
    const double rktemp = (o.xmu + i) * xi2 * k1 + kmu;
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
    cf2_pair(xmu, x, scaled ? 1.0 : std::exp(-x), rkmu, rk1);
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

BesselKFit::BesselKFit(double nu) : order(nu) {
  // Interpolate g0 and g1 at the Chebyshev nodes u_k = cos(pi (k + 1/2) / n),
  // i.e. x_k = 4 / (u_k + 1) in (2, 1870), with CF2 in long double.
  constexpr int n = kTerms;
  std::array<long double, n> f0;
  std::array<long double, n> f1;
  for (int k = 0; k < n; ++k) {
    const long double x = 4.0L / (std::cos(kPiL * (k + 0.5L) / n) + 1.0L);
    long double kmu, k1;
    cf2_pair<long double>(order.xmu, x, 1.0L, kmu, k1);
    f0[k] = std::sqrt(x) * kmu;
    f1[k] = std::sqrt(x) * k1;
  }
  for (int j = 0; j < n; ++j) {
    long double s0 = 0.0L, s1 = 0.0L;
    for (int k = 0; k < n; ++k) {
      const long double t = std::cos(kPiL * j * (k + 0.5L) / n);
      s0 += f0[k] * t;
      s1 += f1[k] * t;
    }
    const long double w = (j == 0 ? 1.0L : 2.0L) / n;
    c0[j] = static_cast<double>(w * s0);
    c1[j] = static_cast<double>(w * s1);
  }
}

double bessel_k_scaled(const BesselKFit& fit, double x) {
  if (x < kXMin) return k_only(fit.order, x, /*scaled=*/true);
  require_argument(x);
  const double xs[1] = {x};
  double k[1];
  fit_k_scaled<1, 1>(fit, xs, k);
  return k[0];
}

}  // namespace gsx::mathx
