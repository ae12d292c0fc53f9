// Covariance models: values, SPD property, parameter plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/covariance_ext.hpp"
#include "la/lapack.hpp"
#include "mathx/bessel.hpp"
#include "test_utils.hpp"

namespace gsx::geostat {
namespace {

TEST(MaternCorrelation, ClosedFormHalf) {
  for (double d : {0.1, 0.5, 1.0, 3.0})
    EXPECT_NEAR(MaternCorrelation(0.5)(d), std::exp(-d), 1e-14);
}

TEST(MaternCorrelation, ClosedFormThreeHalves) {
  for (double d : {0.1, 0.5, 2.0})
    EXPECT_NEAR(MaternCorrelation(1.5)(d), (1.0 + d) * std::exp(-d), 1e-14);
}

TEST(MaternCorrelation, ClosedFormFiveHalves) {
  for (double d : {0.2, 1.0, 4.0})
    EXPECT_NEAR(MaternCorrelation(2.5)(d), (1.0 + d + d * d / 3.0) * std::exp(-d), 1e-14);
}

TEST(MaternCorrelation, GeneralOrderContinuityWithClosedForms) {
  // The Bessel path evaluated *at* nu = 0.5 +/- tiny must agree with the
  // closed form (continuity across the special-case dispatch).
  for (double d : {0.3, 1.0, 2.5}) {
    EXPECT_NEAR(MaternCorrelation(0.5 + 1e-9)(d), std::exp(-d), 1e-6);
    EXPECT_NEAR(MaternCorrelation(1.5 + 1e-9)(d), (1.0 + d) * std::exp(-d), 1e-6);
  }
}

TEST(MaternCorrelation, BasicProperties) {
  for (double nu : {0.2, 0.44, 1.0, 2.7}) {
    EXPECT_DOUBLE_EQ(MaternCorrelation(nu)(0.0), 1.0);
    double prev = 1.0;
    for (double d = 0.05; d < 10.0; d *= 1.7) {
      const double c = MaternCorrelation(nu)(d);
      EXPECT_GT(c, 0.0);
      EXPECT_LE(c, 1.0);
      EXPECT_LT(c, prev) << "monotone decreasing, nu=" << nu << " d=" << d;
      prev = c;
    }
  }
}

TEST(MaternCorrelation, UnderflowsToZeroGracefully) {
  EXPECT_EQ(MaternCorrelation(0.44)(800.0), 0.0);
  EXPECT_GT(MaternCorrelation(0.44)(600.0), 0.0);
}

TEST(MaternCovariance, ValueAndNugget) {
  const MaternCovariance m(2.0, 0.5, 1.5, 0.1);
  const Location a{0.0, 0.0, 0.0};
  const Location b{0.3, 0.4, 0.0};  // distance 0.5
  EXPECT_NEAR(m(a, b), 2.0 * (1.0 + 1.0) * std::exp(-1.0), 1e-12);
  EXPECT_NEAR(m(a, a), 2.0 + 0.1, 1e-12);  // nugget only on the diagonal
}

TEST(MaternCovariance, ParameterRoundTrip) {
  MaternCovariance m(1.0, 0.1, 0.5);
  const std::vector<double> theta = {0.7, 0.22, 1.3};
  m.set_params(theta);
  EXPECT_EQ(m.params(), theta);
  EXPECT_EQ(m.num_params(), 3u);
  EXPECT_EQ(m.param_names().size(), 3u);
  EXPECT_EQ(m.lower_bounds().size(), 3u);
  EXPECT_EQ(m.upper_bounds().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LT(m.lower_bounds()[i], m.upper_bounds()[i]);
  }
}

TEST(MaternCovariance, RejectsInvalidParameters) {
  EXPECT_THROW(MaternCovariance(-1.0, 0.1, 0.5), InvalidArgument);
  EXPECT_THROW(MaternCovariance(1.0, 0.0, 0.5), InvalidArgument);
  MaternCovariance m(1.0, 0.1, 0.5);
  const std::vector<double> bad = {1.0, -0.1, 0.5};
  EXPECT_THROW(m.set_params(bad), InvalidArgument);
  const std::vector<double> wrong_size = {1.0, 0.1};
  EXPECT_THROW(m.set_params(wrong_size), InvalidArgument);
}

TEST(MaternCovariance, CloneIsIndependent) {
  MaternCovariance m(1.0, 0.1, 0.5);
  auto c = m.clone();
  const std::vector<double> theta = {2.0, 0.3, 1.0};
  c->set_params(theta);
  EXPECT_NE(m.params(), c->params());
}

TEST(PoweredExponential, GaussianAndExponentialLimits) {
  const PoweredExponentialCovariance e1(1.0, 1.0, 1.0);
  const PoweredExponentialCovariance e2(1.0, 1.0, 2.0);
  const Location a{0, 0, 0}, b{1, 0, 0};
  EXPECT_NEAR(e1(a, b), std::exp(-1.0), 1e-14);
  EXPECT_NEAR(e2(a, b), std::exp(-1.0), 1e-14);
  const Location c{2, 0, 0};
  EXPECT_NEAR(e2(a, c), std::exp(-4.0), 1e-14);
  EXPECT_THROW(PoweredExponentialCovariance(1.0, 1.0, 2.5), InvalidArgument);
}

TEST(Gneiting, SeparableWhenBetaZero) {
  const GneitingCovariance g(1.0, 0.5, 0.8, 0.7, 0.6, 0.0);
  const Location a{0, 0, 0}, b{0.3, 0, 2.0};
  // beta = 0: C(h, u) = sigma^2/psi(u) * M(h/a_s) factors exactly.
  const double psi = 0.7 * std::pow(2.0, 2 * 0.6) + 1.0;
  const double expect = 1.0 / psi * MaternCorrelation(0.8)(0.3 / 0.5);
  EXPECT_NEAR(g(a, b), expect, 1e-13);
}

TEST(Gneiting, NonseparableCouplesSpaceAndTime) {
  const GneitingCovariance g(1.0, 0.5, 0.8, 0.7, 0.6, 0.8);
  const Location a{0, 0, 0};
  const Location b{0.3, 0, 0.0};
  const Location c{0.3, 0, 2.0};
  // With beta > 0, the effective spatial range grows with |u|: the spatial
  // *correlation ratio* differs from the separable product.
  const double psi = 0.7 * std::pow(2.0, 2 * 0.6) + 1.0;
  const double separable_value = g(a, b) / psi;
  EXPECT_GT(g(a, c), separable_value);
}

TEST(Gneiting, TemporalDecay) {
  const GneitingCovariance g(1.0, 0.5, 0.8, 0.7, 0.6, 0.5);
  const Location a{0, 0, 0};
  double prev = g(a, a);
  for (double t = 1.0; t < 6.0; t += 1.0) {
    const Location b{0, 0, t};
    const double c = g(a, b);
    EXPECT_LT(c, prev);
    prev = c;
  }
}

TEST(Gneiting, ParameterValidation) {
  EXPECT_THROW(GneitingCovariance(1, 1, 1, 1, 1.5, 0.5), InvalidArgument);  // alpha > 1
  EXPECT_THROW(GneitingCovariance(1, 1, 1, 1, 0.5, 1.5), InvalidArgument);  // beta > 1
  EXPECT_NO_THROW(GneitingCovariance(1, 1, 1, 1, 1.0, 1.0));
  GneitingCovariance g(1, 1, 1, 1, 0.5, 0.5);
  EXPECT_EQ(g.num_params(), 6u);
  const std::vector<double> theta = {1.0, 2.0, 0.3, 0.01, 0.9, 0.19};
  g.set_params(theta);
  EXPECT_EQ(g.params(), theta);
}

/// Bit patterns of M_nu(x) recorded from the per-element continued-fraction
/// formulation (same grid as test_bessel's golden table).
struct GoldenCorrelation {
  double nu, x;
  std::uint64_t bits;
};

constexpr GoldenCorrelation kGolden[] = {
    {0.3, 1e-06, 0x3feffe0953ecd430},
    {0.3, 0.5, 0x3fdb9091ec0eca95},
    {0.3, 1.999, 0x3fb3e18b77c04755},
    {0.3, 2.0, 0x3fb3dc0544c58df9},
    {0.3, 17.0, 0x3e51169ac81f51e2},
    {0.3, 47.0, 0x3b97052e7044aed4},
    {0.3, 699.0, 0x00c147a32d9b3b7f},
    {0.8, 1e-06, 0x3fefffffffc809bf},
    {0.8, 0.5, 0x3fe87f0b06e904b8},
    {0.8, 1.999, 0x3fcc999be3b348e6},
    {0.8, 2.0, 0x3fcc9324439b2f79},
    {0.8, 17.0, 0x3e80417bb3f819d3},
    {0.8, 47.0, 0x3bd206a63077b9ae},
    {0.8, 699.0, 0x0119f34e2c0b3b71},
    {1.3, 1e-06, 0x3fefffffffffe29d},
    {1.3, 0.5, 0x3fec59602541722e},
    {1.3, 1.999, 0x3fd6f42d2b1e4764},
    {1.3, 2.0, 0x3fd6eff04273b6f7},
    {1.3, 17.0, 0x3e9fad37b237a7cb},
    {1.3, 47.0, 0x3bfca786fa67ab51},
    {1.3, 699.0, 0x0163ae82bb6f9912},
    {2.2, 1e-06, 0x3feffffffffff8ab},
    {2.2, 0.5, 0x3fee743f074bb15f},
    {2.2, 1.999, 0x3fe156bac2a3fddc},
    {2.2, 2.0, 0x3fe154748e9270ea},
    {2.2, 17.0, 0x3ec83743ec46fcd5},
    {2.2, 47.0, 0x3c39d7e199364a45},
    {2.2, 699.0, 0x01d86d02569e97e0},
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The size of the Matérn exponent's terms at scaled distance x,
/// |log_norm| + nu |log x| + x (x alone at the closed forms): the lanes'
/// stated bound scales with it (geostat/covariance.hpp).
double exponent_size(double nu, double x) {
  if (nu == 0.5 || nu == 1.5 || nu == 2.5) return x;
  return std::fabs((1.0 - nu) * std::log(2.0) - std::lgamma(nu)) + nu * std::fabs(std::log(x)) + x;
}

/// The stated bound on the relative change against libm's arithmetic.
double lane_bound(double nu, double x) { return 0x1p-50 * (1.0 + exponent_size(nu, x)); }

TEST(MaternCorrelation, GoldenBitsUnchanged) {
  // The values were recorded from the continued-fraction routine with
  // std::log and std::exp. The lanes' exp and log stand in for those at
  // every d, and from d = 2 on the Chebyshev fit for the continued fraction
  // (within 3e-15 relative); each within its stated bound.
  for (const GoldenCorrelation& g : kGolden) {
    const double recorded = std::bit_cast<double>(g.bits);
    const double now = MaternCorrelation(g.nu)(g.x);
    const double fit = g.x >= 2.0 ? 3e-15 : 0.0;
    EXPECT_LE(std::fabs(now - recorded), (fit + lane_bound(g.nu, g.x)) * recorded)
        << "nu=" << g.nu << " x=" << g.x;
  }
}

/// A Matérn covariance entry in the arithmetic before the lanes: std::hypot,
/// the division by the range, std::log and std::exp around the fit's K.
double libm_matern(double nu, double range, const Location& a, const Location& b) {
  const double x = std::hypot(a.x - b.x, a.y - b.y) / range;
  if (x == 0.0) return 1.0;
  if (nu == 0.5) return std::exp(-x);
  if (nu == 1.5) return (1.0 + x) * std::exp(-x);
  if (nu == 2.5) return (1.0 + x + x * x / 3.0) * std::exp(-x);
  if (x > 700.0) return 0.0;
  const mathx::BesselKFit fit(nu);
  const double log_norm = (1.0 - nu) * std::log(2.0) - std::lgamma(nu);
  const double v = std::exp(log_norm + nu * std::log(x) - x) * mathx::bessel_k_scaled(fit, x);
  return std::min(v, 1.0);
}

/// The offset along the x axis whose scaled distance from 0 is exactly x
/// (searched over the neighbours of x * range).
double offset_for(double x, double range) {
  double dx = x * range;
  for (int step = 0; step < 64 && dx / range != x; ++step)
    dx = std::nextafter(dx, dx / range < x ? 1e300 : 0.0);
  return dx;
}

TEST(MaternCorrelation, WithinBoundOfLibmArithmetic) {
  Rng rng(31);
  const std::vector<Location> pts = perturbed_grid_locations(400, rng);
  for (double nu : {0.05, 0.3, 0.8, 1.3, 2.2, 3.7, 0.5, 1.5, 2.5}) {
    for (double range : {0.03, 0.1, 0.17}) {
      const MaternCovariance model(1.0, range, nu);
      // Pairs along the x axis at exact scaled distances, including both
      // sides of the Temme/fit switch at 2 and of the underflow cut at 700,
      // then a log grid of scaled distances, then pairs of grid points.
      std::vector<std::pair<Location, Location>> pairs;
      std::vector<double> xs = {0.0, std::nextafter(2.0, 0.0), 2.0, std::nextafter(2.0, 4.0),
                                700.0, 701.0};
      for (int i = 0; i <= 400; ++i) xs.push_back(1e-6 * std::pow(750.0 / 1e-6, i / 400.0));
      for (double x : xs) pairs.push_back({Location{}, Location{offset_for(x, range), 0.0, 0.0}});
      for (std::size_t i = 0; i + 1 < pts.size(); i += 2) pairs.push_back({pts[i], pts[i + 1]});
      for (std::size_t i = 0; i < 6; ++i)
        ASSERT_EQ(pairs[i].second.x / range, xs[i]) << "range=" << range;
      for (const auto& [a, b] : pairs) {
        const double ref = libm_matern(nu, range, a, b);
        const double x = std::hypot(a.x - b.x, a.y - b.y) / range;
        EXPECT_LE(std::fabs(model(a, b) - ref), lane_bound(nu, x) * ref)
            << "nu=" << nu << " range=" << range << " x=" << x;
      }
    }
  }
}

TEST(MaternCorrelation, ModelsUseTheSameArithmetic) {
  // Every Matérn-based model holds a MaternCorrelation; its entries equal
  // the correlation's bit for bit (Gneiting at u = 0, so psi = 1).
  const Location a{0.0, 0.0, 0.0};
  for (const GoldenCorrelation& g : kGolden) {
    const Location b{g.x, 0.0, 0.0};
    const std::uint64_t expect = bits(MaternCorrelation(g.nu)(g.x));
    const MaternCovariance m(1.0, 1.0, g.nu);
    EXPECT_EQ(bits(m(a, b)), expect) << "nu=" << g.nu << " x=" << g.x;
    const GneitingCovariance gn(1.0, 1.0, g.nu, 0.5, 0.5, 0.5);
    EXPECT_EQ(bits(gn(a, b)), expect) << "nu=" << g.nu << " x=" << g.x;
    const MaternNuggetCovariance mn(1.0, 1.0, g.nu, 0.5);
    EXPECT_EQ(bits(mn(a, b)), expect) << "nu=" << g.nu << " x=" << g.x;
    const AnisotropicMaternCovariance am(1.0, 1.0, 1.0, 0.0, g.nu);
    EXPECT_EQ(bits(am(a, b)), expect) << "nu=" << g.nu << " x=" << g.x;
  }
  // set_params rebuilds the constants.
  MaternCovariance m(1.0, 1.0, 0.3);
  const std::vector<double> theta = {1.0, 1.0, 2.2};
  m.set_params(theta);
  EXPECT_EQ(bits(m(a, Location{17.0, 0.0, 0.0})), bits(MaternCorrelation(2.2)(17.0)));
  GneitingCovariance gn(1.0, 1.0, 0.3, 0.5, 0.5, 0.5);
  const std::vector<double> theta_st = {1.0, 1.0, 1.3, 0.5, 0.5, 0.5};
  gn.set_params(theta_st);
  EXPECT_EQ(bits(gn(a, Location{0.5, 0.0, 0.0})), bits(MaternCorrelation(1.3)(0.5)));
  MaternNuggetCovariance mn(1.0, 1.0, 0.3, 0.5);
  const std::vector<double> theta_nug = {1.0, 1.0, 0.8, 0.5};
  mn.set_params(theta_nug);
  EXPECT_EQ(bits(mn(a, Location{2.0, 0.0, 0.0})), bits(MaternCorrelation(0.8)(2.0)));
  AnisotropicMaternCovariance am(1.0, 1.0, 1.0, 0.0, 0.3);
  const std::vector<double> theta_an = {1.0, 1.0, 1.0, 0.0, 2.2};
  am.set_params(theta_an);
  EXPECT_EQ(bits(am(a, Location{47.0, 0.0, 0.0})), bits(MaternCorrelation(2.2)(47.0)));
}

/// fill's vector lanes against operator(), bit for bit, for every Matérn
/// order. ctest runs this again under GSX_GEMM_ISA=avx2 and =portable
/// (tests/CMakeLists.txt), so every lane width the host supports is checked.
TEST(MaternCovariance, FillMatchesScalarBitwise) {
  // Rows along the x axis at scaled distances 0, a log grid over [1e-8,
  // 720] (so past 700 too) and the edges of the Temme/fit switch and the
  // underflow cut; then special pairs: a duplicated location (the nugget
  // joins), locations 1e-160 and 1e-170 apart (too close to square, so
  // std::hypot, and no nugget) and 1e200 apart (the square overflows).
  constexpr double kRange = 0.1;
  std::vector<Location> rows;
  std::vector<double> xs = {0.0, 2.0, std::nextafter(2.0, 0.0), 700.0,
                            std::nextafter(700.0, 1000.0)};
  for (int i = 0; i < 3000; ++i) xs.push_back(1e-8 * std::pow(720.0 / 1e-8, i / 2999.0));
  for (double x : xs) rows.push_back(Location{x * kRange, 0.0, 0.0});
  const std::vector<Location> special = {{0.0, 0.0, 0.0},   {1e-160, 0.0, 0.0},
                                         {0.0, 1e-170, 0.0}, {1e200, 0.0, 0.0},
                                         {0.3, 0.7, 0.0},   {0.3, 0.7, 0.0}};
  rows.insert(rows.end(), special.begin(), special.end());
  const std::vector<Location> cols = {special[0], special[4], Location{0.05, 0.02, 0.0}};
  const auto check = [&](const MaternCovariance& model, std::span<const Location> r,
                         std::span<const Location> c) {
    la::Matrix<double> out(r.size(), c.size());
    model.fill(r, c, out.view());
    std::size_t mismatches = 0;
    for (std::size_t j = 0; j < c.size(); ++j)
      for (std::size_t i = 0; i < r.size(); ++i)
        mismatches += bits(out(i, j)) != bits(model(r[i], c[j]));
    return mismatches;
  };
  for (double nu : {0.3, 0.8, 1.3, 2.2, 3.7, 0.5, 1.5, 2.5}) {
    const MaternCovariance model(1.3, kRange, nu, 0.01);
    EXPECT_EQ(check(model, rows, cols), 0u) << "nu=" << nu;
    // Every row count from 1 to 2W + 1 at the widest W = 8, so every tail of
    // two register groups.
    for (std::size_t len = 1; len <= 17; ++len)
      EXPECT_EQ(check(model, std::span(rows).subspan(1500, len), cols), 0u)
          << "nu=" << nu << " rows=" << len;
  }
  // Distance 0 is "same location": the duplicate gets the nugget, the pairs
  // 1e-160 and 1e-170 apart do not.
  const MaternCovariance model(1.3, kRange, 0.8, 0.01);
  EXPECT_EQ(model(special[4], special[5]), 1.3 + 0.01);
  EXPECT_NEAR(model(special[0], special[1]), 1.3, 1e-12);
  EXPECT_NEAR(model(special[0], special[2]), 1.3, 1e-12);
  EXPECT_EQ(model(special[0], special[3]), 0.0);
  // At nu = 2.2 the pair 1e-160 apart overflows Temme's e^x K_nu(x); the
  // entry is the x -> 0 limit, the variance, in fill and operator() alike.
  const MaternCovariance smooth(1.3, kRange, 2.2, 0.01);
  la::Matrix<double> close(special.size(), 1);
  smooth.fill(special, std::span(special).first(1), close.view());
  EXPECT_EQ(close(1, 0), 1.3);
  EXPECT_EQ(smooth(special[1], special[0]), 1.3);
  // The closed forms too: capping x keeps 1 + x + x^2/3 finite, so no inf * 0.
  for (double nu : {1.5, 2.5})
    EXPECT_EQ(MaternCovariance(1.3, kRange, nu)(special[0], special[3]), 0.0) << "nu=" << nu;
  // A NaN distance anywhere in a block is an error, for the Bessel path and
  // a closed form.
  for (double nu : {0.8, 0.5}) {
    const MaternCovariance m(1.0, kRange, nu);
    std::vector<Location> bad(40, Location{0.3, 0.3, 0.0});
    bad[37].y = std::numeric_limits<double>::quiet_NaN();
    la::Matrix<double> out(bad.size(), cols.size());
    EXPECT_THROW(m.fill(bad, cols, out.view()), InvalidArgument) << "nu=" << nu;
  }
  la::Matrix<double> wrong(2, 2);
  EXPECT_THROW(model.fill(rows, cols, wrong.view()), InvalidArgument);
}

TEST(MaternCorrelation, LimitOneAtTinyDistances) {
  // For nu > 1, e^x K_nu(x) overflows to inf at these x while the prefactor
  // underflows to 0; 1 - M_nu ~ x^2 / (4 (nu - 1)) is far below 2^-53.
  for (double nu : {1.3, 2.2, 3.7, 5.0}) {
    const MaternCorrelation m(nu);
    for (double x : {1e-300, 1e-200, 1e-160, 1e-100})
      EXPECT_EQ(m(x), 1.0) << "nu=" << nu << " x=" << x;
  }
}

TEST(MaternCorrelation, RejectsBadSmoothnessUpFront) {
  EXPECT_THROW(MaternCorrelation(0.0), InvalidArgument);
  EXPECT_THROW(MaternCorrelation(std::numeric_limits<double>::infinity()), InvalidArgument);
  EXPECT_THROW(MaternCovariance(1.0, 0.1, -0.5), InvalidArgument);
  // A rejected set_params leaves the model untouched.
  MaternCovariance m(1.0, 0.1, 0.8);
  const std::vector<double> bad = {2.0, 0.2, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(m.set_params(bad), InvalidArgument);
  EXPECT_EQ(m.params(), (std::vector<double>{1.0, 0.1, 0.8}));
}

TEST(FillCovarianceTiles, BitIdenticalToCovarianceMatrixWithRaggedTile) {
  // n = 300 in tiles of 128: the last tile row/column is 44 wide. Both
  // fill_covariance_tiles and covariance_matrix go through
  // CovarianceModel::fill, so the reference is a per-element operator() loop.
  // A repeated location puts d = 0 off the diagonal, where the nugget joins.
  Rng rng(23);
  auto locs = perturbed_grid_locations(300, rng);
  locs[200] = locs[7];
  const MaternCovariance model(1.0, 0.1, 0.8, 1e-3);
  la::Matrix<double> ref(300, 300);
  for (std::size_t j = 0; j < 300; ++j)
    for (std::size_t i = 0; i < 300; ++i) ref(i, j) = model(locs[i], locs[j]);
  tile::SymTileMatrix tiles(300, 128);
  fill_covariance_tiles(tiles, model, locs, 4);
  ASSERT_EQ(tiles.nt(), 3u);
  ASSERT_EQ(tiles.tile_dim(2), 44u);
  std::size_t mismatches = 0;
  for (std::size_t tj = 0; tj < tiles.nt(); ++tj) {
    for (std::size_t ti = tj; ti < tiles.nt(); ++ti) {
      const la::Matrix<double>& t = tiles.at(ti, tj).matrix<double>();
      for (std::size_t c = 0; c < t.cols(); ++c)
        for (std::size_t r = 0; r < t.rows(); ++r)
          mismatches += bits(t(r, c)) != bits(ref(tiles.tile_offset(ti) + r,
                                                    tiles.tile_offset(tj) + c));
    }
  }
  EXPECT_EQ(mismatches, 0u);
  const la::Matrix<double> sigma = covariance_matrix(model, locs);
  std::size_t dense_mismatches = 0;
  for (std::size_t j = 0; j < 300; ++j)
    for (std::size_t i = 0; i < 300; ++i) dense_mismatches += bits(sigma(i, j)) != bits(ref(i, j));
  EXPECT_EQ(dense_mismatches, 0u);
}

TEST(FillCovarianceTiles, NanLocationThrowsInvalidArgument) {
  // A NaN coordinate must surface as an error out of the worker pool — not
  // std::terminate, not a NaN tile — for the Bessel path and a closed form.
  Rng rng(29);
  auto locs = perturbed_grid_locations(300, rng);
  locs[150].x = std::numeric_limits<double>::quiet_NaN();
  for (double nu : {0.8, 0.5}) {
    const MaternCovariance model(1.0, 0.1, nu);
    for (std::size_t workers : {1u, 4u}) {
      tile::SymTileMatrix tiles(300, 128);
      EXPECT_THROW(fill_covariance_tiles(tiles, model, locs, workers), InvalidArgument)
          << "nu=" << nu << " workers=" << workers;
    }
  }
}

class SpdCheck : public ::testing::TestWithParam<double> {};

TEST_P(SpdCheck, MaternCovarianceMatrixIsSpd) {
  const double range = GetParam();
  Rng rng(11);
  auto locs = perturbed_grid_locations(80, rng);
  const MaternCovariance model(1.0, range, 0.44, 1e-8);
  la::Matrix<double> sigma = covariance_matrix(model, locs);
  EXPECT_EQ(la::potrf(sigma.view()), 0)
      << "Matérn covariance must be SPD at range " << range;
}

INSTANTIATE_TEST_SUITE_P(Ranges, SpdCheck, ::testing::Values(0.03, 0.1, 0.3));

TEST(SpdCheckSpaceTime, GneitingCovarianceMatrixIsSpd) {
  Rng rng(13);
  auto spatial = perturbed_grid_locations(25, rng);
  auto locs = replicate_in_time(spatial, 6, 1.0);
  const GneitingCovariance model(1.0, 0.2, 0.5, 0.5, 0.9, 0.3, 1e-8);
  la::Matrix<double> sigma = covariance_matrix(model, locs);
  EXPECT_EQ(la::potrf(sigma.view()), 0);
}

TEST(CrossCovariance, MatchesElementwiseModel) {
  Rng rng(17);
  auto a = perturbed_grid_locations(9, rng);
  auto b = perturbed_grid_locations(16, rng);
  const MaternCovariance model(1.5, 0.2, 0.5);
  const auto sigma = cross_covariance(model, a, b);
  ASSERT_EQ(sigma.rows(), 9u);
  ASSERT_EQ(sigma.cols(), 16u);
  for (std::size_t j = 0; j < 16; ++j)
    for (std::size_t i = 0; i < 9; ++i)
      EXPECT_DOUBLE_EQ(sigma(i, j), model(a[i], b[j]));
}

}  // namespace
}  // namespace gsx::geostat
