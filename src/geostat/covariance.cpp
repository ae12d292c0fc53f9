#include "geostat/covariance.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/isa.hpp"
#include "mathx/bessel.hpp"
#include "mathx/distance.hpp"
#include "mathx/lanes.hpp"

namespace gsx::geostat {

namespace {

using mathx::LaneD;

#if defined(__x86_64__)
#define GSX_X86_DISPATCH 1
#else
#define GSX_X86_DISPATCH 0
#endif

/// Half-integer smoothness with a closed form (the common special cases).
bool closed_form(double nu) { return nu == 0.5 || nu == 1.5 || nu == 2.5; }

/// Beyond this distance M_nu underflows to 0, which is the correct limit.
constexpr double kUnderflowDistance = 700.0;

/// The closed forms take x no larger than this: e^{-x} is 0 from there on,
/// and the cap keeps 1 + x + x^2/3 finite, so an enormous or infinite x
/// gives 0 rather than inf * 0.
constexpr double kClosedFormCap = 750.0;

/// M_nu at a closed-form order (nu = 0.5, 1.5 or 2.5), x > 0.
template <int W>
GSX_LANE_INLINE LaneD<W> closed_form_lanes(double nu, LaneD<W> x) {
  x = x > kClosedFormCap ? kClosedFormCap : x;
  const LaneD<W> e = mathx::lane_exp<W>(-x);
  if (nu == 0.5) return e;
  if (nu == 1.5) return (1.0 + x) * e;
  return (1.0 + x + x * x / 3.0) * e;
}

/// M_nu from k = exp(x) K_nu(x), 0 < x <= 700 off the closed forms. The e^{-x}
/// joins the exponent of the prefactor, so the product does not underflow
/// early; the min guards a tiny overshoot near x -> 0. The min also maps NaN
/// to 1: with NaN distances rejected up front, the product is NaN only where
/// k overflows (x -> 0 with nu >= 1, e.g. nu = 2.2 at x <= 1e-159) while the
/// prefactor underflows to 0, and there M_nu is 1, since 1 - M_nu ~
/// x^2 / (4 (nu - 1)) is far below 2^-53.
template <int W>
GSX_LANE_INLINE LaneD<W> from_k_lanes(double nu, double log_norm, LaneD<W> x, LaneD<W> k) {
  const LaneD<W> v = mathx::lane_exp<W>((log_norm + nu * mathx::lane_log<W>(x)) - x) * k;
  return v < 1.0 ? v : 1.0;  // std::min(v, 1.0), and 1 for NaN
}

/// What MaternCorrelation::fill needs of the correlation and the model.
struct MaternBlock {
  double nu;
  double log_norm;
  const mathx::BesselKFit* fit;  ///< null at the closed-form orders
  double variance;
  double range;
  double nugget;
};

/// Register groups interleaved in the Clenshaw pass, and rows per chunk.
constexpr int kGroups = 2;
constexpr std::size_t kChunk = 256;

/// Pass (2): k[t] = exp(x) K_nu(x) at max(x[t], 2) from the fit, reading
/// series S, for t in [0, mp).
template <int W, mathx::FitSeries S>
GSX_LANE_INLINE void k_pass(const mathx::BesselKFit& fit, const double* x, double* k,
                            std::size_t mp) {
  for (std::size_t t = 0; t < mp; t += kGroups * W) {
    LaneD<W> xv[kGroups], kv[kGroups];
    for (int g = 0; g < kGroups; ++g) {
      const LaneD<W> v = mathx::lane_load<W>(x + t + g * W);
      xv[g] = v < 2.0 ? 2.0 : v;
    }
    mathx::fit_k_scaled<W, kGroups, S>(fit, xv, kv);
    for (int g = 0; g < kGroups; ++g) mathx::lane_store<W>(k + t + g * W, kv[g]);
  }
}

/// The Matérn block in staged passes over each column chunk, W lanes at a
/// time; W = 1 would be operator() entry by entry, and every lane performs
/// its operations. Rows are copied in chunks to coordinate arrays padded with
/// the chunk's last row to whole passes; pad lanes are computed and dropped.
template <int W>
GSX_LANE_INLINE void fill_lanes(const MaternBlock& mb, std::span<const Location> rows,
                                std::span<const Location> cols, Span2D<double> out) {
  using D = LaneD<W>;
  constexpr std::size_t kPass = kGroups * W;
  alignas(64) double rx[kChunk], ry[kChunk], d[kChunk], x[kChunk], k[kChunk], c[kChunk];
  const mathx::FitSeries series =
      mb.fit != nullptr ? mathx::fit_series(*mb.fit) : mathx::FitSeries::Both;
  for (std::size_t r0 = 0; r0 < rows.size(); r0 += kChunk) {
    const std::size_t m = std::min(kChunk, rows.size() - r0);
    const std::size_t mp = (m + kPass - 1) / kPass * kPass;
    for (std::size_t i = 0; i < mp; ++i) {
      const Location& l = rows[r0 + std::min(i, m - 1)];
      rx[i] = l.x;
      ry[i] = l.y;
    }
    for (std::size_t j = 0; j < cols.size(); ++j) {
      const double bx = cols[j].x;
      const double by = cols[j].y;
      // (1) d = sqrt(dx^2 + dy^2) and x = d / range.
      mathx::LaneM<W> odd{};
      mathx::LaneM<W> nan{};
      for (std::size_t t = 0; t < mp; t += W) {
        mathx::LaneM<W> h{};
        const D dv = mathx::lane_distance<W>(mathx::lane_load<W>(rx + t) - bx,
                                             mathx::lane_load<W>(ry + t) - by, h);
        const D xv = dv / mb.range;
        odd |= h;
        nan |= xv != xv;
        mathx::lane_store<W>(d + t, dv);
        mathx::lane_store<W>(x + t, xv);
      }
      // Separations the lanes cannot square (below ~1.5e-154, or overflowing)
      // take euclidean2d's std::hypot; its other entries are the lanes' bits.
      if (mathx::lane_any<W>(odd)) {
        for (std::size_t i = 0; i < mp; ++i) {
          d[i] = mathx::euclidean2d(rx[i], ry[i], bx, by);
          x[i] = d[i] / mb.range;
        }
      }
      // Also the guard that turns a NaN location into an error rather than a
      // NaN tile entry.
      GSX_REQUIRE(!mathx::lane_any<W>(nan),
                  "MaternCorrelation: distance must be non-negative");
      if (mb.fit != nullptr) {
        // (2) The fit at max(x, 2) for every entry, only the series the order
        // reads.
        switch (series) {
          case mathx::FitSeries::G0: k_pass<W, mathx::FitSeries::G0>(*mb.fit, x, k, mp); break;
          case mathx::FitSeries::G1: k_pass<W, mathx::FitSeries::G1>(*mb.fit, x, k, mp); break;
          case mathx::FitSeries::Both: k_pass<W, mathx::FitSeries::Both>(*mb.fit, x, k, mp); break;
        }
        // (3) Temme's series where 0 < x < 2.
        for (std::size_t i = 0; i < m; ++i)
          if (x[i] > 0.0 && x[i] < 2.0) k[i] = mathx::bessel_k_scaled(*mb.fit, x[i]);
      }
      // (4) The prefactor, then variance and nugget.
      for (std::size_t t = 0; t < mp; t += W) {
        const D xv = mathx::lane_load<W>(x + t);
        D v;
        if (mb.fit == nullptr) {
          v = closed_form_lanes<W>(mb.nu, xv);
        } else {
          v = from_k_lanes<W>(mb.nu, mb.log_norm, xv, mathx::lane_load<W>(k + t));
          v = xv > kUnderflowDistance ? 0.0 : v;
        }
        v = xv == 0.0 ? 1.0 : v;
        const D cv = mb.variance * v;
        mathx::lane_store<W>(c + t, mathx::lane_load<W>(d + t) == 0.0 ? cv + mb.nugget : cv);
      }
      std::memcpy(out.data() + j * out.ld() + r0, c, m * sizeof(double));
    }
  }
}

void fill_portable(const MaternBlock& mb, std::span<const Location> rows,
                   std::span<const Location> cols, Span2D<double> out) {
  fill_lanes<2>(mb, rows, cols, out);
}

#if GSX_X86_DISPATCH
// No FMA in either target list; -ffp-contract=off (GSX_LANE_OPTIONS) keeps
// GCC from fusing where the target would allow it (AVX-512F implies FMA in
// GCC).
__attribute__((target("avx2"))) void fill_avx2(const MaternBlock& mb,
                                               std::span<const Location> rows,
                                               std::span<const Location> cols,
                                               Span2D<double> out) {
  fill_lanes<4>(mb, rows, cols, out);
}

__attribute__((target("avx512f"))) void fill_avx512(const MaternBlock& mb,
                                                   std::span<const Location> rows,
                                                   std::span<const Location> cols,
                                                   Span2D<double> out) {
  fill_lanes<8>(mb, rows, cols, out);
}
#endif

}  // namespace

MaternCorrelation::MaternCorrelation(double nu) : nu_(nu) {
  GSX_REQUIRE(nu > 0.0 && std::isfinite(nu),
              "MaternCorrelation: smoothness must be positive and finite");
  if (closed_form(nu)) return;  // closed forms need no Bessel K
  log_norm_ = (1.0 - nu) * std::log(2.0) - std::lgamma(nu);
  fit_ = mathx::BesselKFit(nu);
}

double MaternCorrelation::operator()(double x) const {
  // Also the guard that turns a NaN location into an error rather than a
  // NaN tile entry.
  GSX_REQUIRE(x >= 0.0, "MaternCorrelation: distance must be non-negative");
  if (x == 0.0) return 1.0;
  if (closed_form(nu_)) return closed_form_lanes<1>(nu_, x);
  if (x > kUnderflowDistance) return 0.0;
  return from_k_lanes<1>(nu_, log_norm_, x, mathx::bessel_k_scaled(fit_, x));
}

void MaternCorrelation::fill(std::span<const Location> rows, std::span<const Location> cols,
                             double variance, double range, double nugget,
                             Span2D<double> out) const {
  GSX_REQUIRE(out.rows() == rows.size() && out.cols() == cols.size(),
              "MaternCorrelation::fill: block shape differs from the location sets");
  const MaternBlock mb{nu_, log_norm_, closed_form(nu_) ? nullptr : &fit_, variance, range,
                       nugget};
  switch (active_isa()) {
#if GSX_X86_DISPATCH
    case Isa::Avx512: return fill_avx512(mb, rows, cols, out);
    case Isa::Avx2: return fill_avx2(mb, rows, cols, out);
#endif
    default: return fill_portable(mb, rows, cols, out);
  }
}

void CovarianceModel::fill(std::span<const Location> rows, std::span<const Location> cols,
                           Span2D<double> out) const {
  GSX_REQUIRE(out.rows() == rows.size() && out.cols() == cols.size(),
              "CovarianceModel::fill: block shape differs from the location sets");
  for (std::size_t j = 0; j < cols.size(); ++j)
    for (std::size_t i = 0; i < rows.size(); ++i) out(i, j) = (*this)(rows[i], cols[j]);
}

// ---------------------------------------------------------------- Matérn

MaternCovariance::MaternCovariance(double variance, double range, double smoothness,
                                   double nugget)
    : variance_(variance), range_(range), corr_(smoothness), nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range > 0 && nugget >= 0,
              "MaternCovariance: parameters must be positive (nugget >= 0)");
}

double MaternCovariance::operator()(const Location& a, const Location& b) const {
  const double d = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double c = variance_ * corr_(d / range_);
  return (d == 0.0) ? c + nugget_ : c;
}

void MaternCovariance::fill(std::span<const Location> rows, std::span<const Location> cols,
                            Span2D<double> out) const {
  corr_.fill(rows, cols, variance_, range_, nugget_, out);
}

std::vector<double> MaternCovariance::params() const {
  return {variance_, range_, corr_.nu()};
}

void MaternCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 3, "MaternCovariance: expects 3 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0,
              "MaternCovariance: parameters must be positive");
  corr_ = MaternCorrelation(theta[2]);
  variance_ = theta[0];
  range_ = theta[1];
}

std::vector<double> MaternCovariance::lower_bounds() const { return {0.01, 0.005, 0.05}; }
std::vector<double> MaternCovariance::upper_bounds() const { return {10.0, 5.0, 5.0}; }
std::vector<std::string> MaternCovariance::param_names() const {
  return {"variance", "range", "smoothness"};
}
std::unique_ptr<CovarianceModel> MaternCovariance::clone() const {
  return std::make_unique<MaternCovariance>(*this);
}

// ---------------------------------------------- Powered exponential

PoweredExponentialCovariance::PoweredExponentialCovariance(double variance, double range,
                                                           double power, double nugget)
    : variance_(variance), range_(range), power_(power), nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range > 0 && power > 0 && power <= 2.0 && nugget >= 0,
              "PoweredExponentialCovariance: invalid parameters");
}

double PoweredExponentialCovariance::operator()(const Location& a, const Location& b) const {
  const double d = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double c = variance_ * std::exp(-std::pow(d / range_, power_));
  return (d == 0.0) ? c + nugget_ : c;
}

std::vector<double> PoweredExponentialCovariance::params() const {
  return {variance_, range_, power_};
}

void PoweredExponentialCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 3, "PoweredExponentialCovariance: expects 3 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[2] <= 2.0,
              "PoweredExponentialCovariance: invalid parameters");
  variance_ = theta[0];
  range_ = theta[1];
  power_ = theta[2];
}

std::vector<double> PoweredExponentialCovariance::lower_bounds() const {
  return {0.01, 0.005, 0.05};
}
std::vector<double> PoweredExponentialCovariance::upper_bounds() const {
  return {10.0, 5.0, 2.0};
}
std::vector<std::string> PoweredExponentialCovariance::param_names() const {
  return {"variance", "range", "power"};
}
std::unique_ptr<CovarianceModel> PoweredExponentialCovariance::clone() const {
  return std::make_unique<PoweredExponentialCovariance>(*this);
}

// ------------------------------------------------------ Gneiting

GneitingCovariance::GneitingCovariance(double variance, double range_s, double smooth_s,
                                       double range_t, double smooth_t, double beta,
                                       double nugget)
    : variance_(variance),
      range_s_(range_s),
      corr_s_(smooth_s),
      range_t_(range_t),
      smooth_t_(smooth_t),
      beta_(beta),
      nugget_(nugget) {
  GSX_REQUIRE(variance > 0 && range_s > 0 && range_t > 0,
              "GneitingCovariance: scale parameters must be positive");
  GSX_REQUIRE(smooth_t > 0 && smooth_t <= 1.0, "GneitingCovariance: alpha in (0, 1]");
  GSX_REQUIRE(beta >= 0 && beta <= 1.0, "GneitingCovariance: beta in [0, 1]");
  GSX_REQUIRE(nugget >= 0, "GneitingCovariance: nugget must be non-negative");
}

double GneitingCovariance::operator()(const Location& a, const Location& b) const {
  const double h = mathx::euclidean2d(a.x, a.y, b.x, b.y);
  const double u = std::fabs(a.t - b.t);
  const double psi = range_t_ * std::pow(u, 2.0 * smooth_t_) + 1.0;
  const double arg = h / (range_s_ * std::pow(psi, beta_ / 2.0));
  const double c = variance_ / psi * corr_s_(arg);
  return (h == 0.0 && u == 0.0) ? c + nugget_ : c;
}

std::vector<double> GneitingCovariance::params() const {
  return {variance_, range_s_, corr_s_.nu(), range_t_, smooth_t_, beta_};
}

void GneitingCovariance::set_params(std::span<const double> theta) {
  GSX_REQUIRE(theta.size() == 6, "GneitingCovariance: expects 6 parameters");
  GSX_REQUIRE(theta[0] > 0 && theta[1] > 0 && theta[2] > 0 && theta[3] > 0,
              "GneitingCovariance: scale parameters must be positive");
  GSX_REQUIRE(theta[4] > 0 && theta[4] <= 1.0, "GneitingCovariance: alpha in (0, 1]");
  GSX_REQUIRE(theta[5] >= 0 && theta[5] <= 1.0, "GneitingCovariance: beta in [0, 1]");
  corr_s_ = MaternCorrelation(theta[2]);
  variance_ = theta[0];
  range_s_ = theta[1];
  range_t_ = theta[3];
  smooth_t_ = theta[4];
  beta_ = theta[5];
}

std::vector<double> GneitingCovariance::lower_bounds() const {
  return {0.01, 0.005, 0.05, 0.001, 0.01, 0.0};
}
std::vector<double> GneitingCovariance::upper_bounds() const {
  return {10.0, 10.0, 5.0, 10.0, 1.0, 1.0};
}
std::vector<std::string> GneitingCovariance::param_names() const {
  return {"variance", "range-space", "smooth-space", "range-time", "smooth-time", "beta"};
}
std::unique_ptr<CovarianceModel> GneitingCovariance::clone() const {
  return std::make_unique<GneitingCovariance>(*this);
}

}  // namespace gsx::geostat
