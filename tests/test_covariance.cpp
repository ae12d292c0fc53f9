// Covariance models: values, SPD property, parameter plumbing.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/covariance_ext.hpp"
#include "la/lapack.hpp"
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

TEST(MaternCorrelation, GoldenBitsUnchanged) {
  // The values were recorded from the continued-fraction routine; at d >= 2
  // the Chebyshev fit stands in for it, within a stated bound of it.
  for (const GoldenCorrelation& g : kGolden) {
    const double recorded = std::bit_cast<double>(g.bits);
    const double now = MaternCorrelation(g.nu)(g.x);
    EXPECT_LE(std::fabs(now - recorded), 3e-15 * recorded) << "nu=" << g.nu << " x=" << g.x;
    if (g.x < 2.0) {
      EXPECT_EQ(bits(now), g.bits) << "nu=" << g.nu << " x=" << g.x;
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

/// eval's vector-lane path against operator(), bit for bit. ctest runs this
/// again under GSX_GEMM_ISA=avx2 and =portable (tests/CMakeLists.txt).
TEST(MaternCorrelation, EvalMatchesScalarBitwise) {
  // d = 0, a log grid over [1e-8, 720] (so d > 700 too), and the edges of
  // the Temme/CF2 switch and the underflow cut.
  constexpr std::size_t kPoints = 20000;
  const double lo = std::log(1e-8);
  const double hi = std::log(720.0);
  std::vector<double> d = {0.0, 2.0, std::nextafter(2.0, 0.0), 700.0,
                           std::nextafter(700.0, 1000.0)};
  for (std::size_t i = 0; i < kPoints; ++i) {
    d.push_back(std::exp(lo + (hi - lo) * static_cast<double>(i) / (kPoints - 1)));
    if (i % 97 == 0) d.push_back(0.0);
  }
  std::vector<double> out(d.size());
  for (double nu : {0.3, 0.8, 1.3, 2.2, 3.7, 0.5, 1.5, 2.5}) {
    const MaternCorrelation corr(nu);
    corr.eval(d, out);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < d.size(); ++i) mismatches += bits(out[i]) != bits(corr(d[i]));
    EXPECT_EQ(mismatches, 0u) << "nu=" << nu;
    // Short spans: every tail of two groups of up to 8 lanes.
    for (std::size_t len = 1; len <= 33; ++len) {
      const std::span<const double> part(d.data() + 9000, len);
      std::vector<double> got(len);
      corr.eval(part, got);
      for (std::size_t i = 0; i < len; ++i)
        EXPECT_EQ(bits(got[i]), bits(corr(part[i]))) << "nu=" << nu << " len=" << len;
    }
  }
  // A negative or NaN distance anywhere in the span is an error.
  const MaternCorrelation corr(0.8);
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> dd(40, 3.0);
    dd[37] = bad;
    std::vector<double> got(dd.size());
    EXPECT_THROW(corr.eval(dd, got), InvalidArgument) << "d = " << bad;
  }
  std::vector<double> short_out(2);
  EXPECT_THROW(corr.eval(d, short_out), InvalidArgument);
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
      const la::Matrix<double>& t = tiles.at(ti, tj).d64();
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
  EXPECT_EQ(la::potrf<double>(la::Uplo::Lower, sigma.view()), 0)
      << "Matérn covariance must be SPD at range " << range;
}

INSTANTIATE_TEST_SUITE_P(Ranges, SpdCheck, ::testing::Values(0.03, 0.1, 0.3));

TEST(SpdCheckSpaceTime, GneitingCovarianceMatrixIsSpd) {
  Rng rng(13);
  auto spatial = perturbed_grid_locations(25, rng);
  auto locs = replicate_in_time(spatial, 6, 1.0);
  const GneitingCovariance model(1.0, 0.2, 0.5, 0.5, 0.9, 0.3, 1e-8);
  la::Matrix<double> sigma = covariance_matrix(model, locs);
  EXPECT_EQ(la::potrf<double>(la::Uplo::Lower, sigma.view()), 0);
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
