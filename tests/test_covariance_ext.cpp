// Extended covariance families: nugget estimation and anisotropy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "geostat/assemble.hpp"
#include "geostat/covariance_ext.hpp"
#include "geostat/field.hpp"
#include "geostat/likelihood.hpp"
#include "la/lapack.hpp"
#include "optim/nelder_mead.hpp"
#include "test_utils.hpp"

namespace gsx::geostat {
namespace {

TEST(MaternNugget, NuggetOnlyOnDiagonal) {
  const MaternNuggetCovariance m(1.0, 0.2, 0.5, 0.3);
  const Location a{0, 0, 0}, b{0.1, 0, 0};
  EXPECT_NEAR(m(a, a), 1.3, 1e-14);
  EXPECT_NEAR(m(a, b), std::exp(-0.5), 1e-12);
}

TEST(MaternNugget, ParameterPlumbing) {
  MaternNuggetCovariance m(1.0, 0.2, 0.5, 0.1);
  EXPECT_EQ(m.num_params(), 4u);
  const std::vector<double> theta = {2.0, 0.3, 1.5, 0.05};
  m.set_params(theta);
  EXPECT_EQ(m.params(), theta);
  const std::vector<double> bad = {1.0, 0.2, 0.5, -0.1};
  EXPECT_THROW(m.set_params(bad), InvalidArgument);
}

/// The nugget model assembles through the same lanes as MaternCovariance:
/// fill equals operator() bit for bit, the duplicated location included.
/// ctest runs this again under GSX_GEMM_ISA=avx2 and =portable.
TEST(MaternNugget, FillMatchesScalarBitwise) {
  Rng rng(41);
  auto locs = perturbed_grid_locations(150, rng);
  locs[90] = locs[63];
  for (double nu : {0.3, 0.8, 2.2, 0.5, 2.5}) {
    const MaternNuggetCovariance m(1.7, 0.08, nu, 0.05);
    const auto rows = std::span<const Location>(locs).subspan(0, 131);
    const auto cols = std::span<const Location>(locs).subspan(60, 37);
    la::Matrix<double> out(rows.size(), cols.size());
    m.fill(rows, cols, out.view());
    std::size_t mismatches = 0;
    for (std::size_t j = 0; j < cols.size(); ++j)
      for (std::size_t i = 0; i < rows.size(); ++i)
        mismatches += std::bit_cast<std::uint64_t>(out(i, j)) !=
                      std::bit_cast<std::uint64_t>(m(rows[i], cols[j]));
    EXPECT_EQ(mismatches, 0u) << "nu=" << nu;
    EXPECT_EQ(out(90, 3), 1.7 + 0.05) << "nu=" << nu;
  }
}

TEST(MaternNugget, SpdWithDuplicateLocations) {
  // The whole point of the nugget: duplicated locations stay factorable.
  std::vector<Location> locs = {{0.5, 0.5, 0}, {0.5, 0.5, 0}, {0.1, 0.9, 0},
                                {0.9, 0.1, 0}};
  const MaternNuggetCovariance m(1.0, 0.2, 0.5, 0.2);
  la::Matrix<double> sigma = covariance_matrix(m, locs);
  EXPECT_EQ(la::potrf(sigma.view()), 0);
}

TEST(MaternNugget, MleRecoversNuggetShare) {
  // Field + iid noise: the 4-parameter fit should attribute variance to the
  // nugget rather than inflating the sill.
  Rng rng(7);
  auto locs = perturbed_grid_locations(220, rng);
  const MaternNuggetCovariance truth(1.0, 0.15, 1.0, 0.3);
  const auto z = simulate_grf(truth, locs, rng);

  const optim::Objective obj = [&](std::span<const double> theta) {
    MaternNuggetCovariance m(1.0, 0.1, 0.5, 0.1);
    try {
      m.set_params(theta);
    } catch (const InvalidArgument&) {
      return std::numeric_limits<double>::infinity();
    }
    const LoglikValue v = dense_loglik(m, locs, z);
    return v.ok ? -v.loglik : std::numeric_limits<double>::infinity();
  };
  optim::NelderMeadOptions opts;
  opts.max_evals = 400;
  const std::vector<double> start = {0.5, 0.1, 0.8, 0.05};
  const auto r = optim::nelder_mead(obj, start, truth.lower_bounds(), truth.upper_bounds(),
                                    opts);
  // Loose single-replicate bounds.
  EXPECT_GT(r.x[3], 0.05) << "nugget must be detected";
  EXPECT_LT(r.x[3], 0.9);
  EXPECT_GT(r.x[0], 0.3);
  EXPECT_LT(r.x[0], 3.0);
}

TEST(AnisotropicMatern, ReducesToIsotropicWhenRangesEqual) {
  const AnisotropicMaternCovariance aniso(1.3, 0.2, 0.2, 0.7, 0.8);
  const MaternCovariance iso(1.3, 0.2, 0.8);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Location a{rng.uniform(), rng.uniform(), 0};
    const Location b{rng.uniform(), rng.uniform(), 0};
    EXPECT_NEAR(aniso(a, b), iso(a, b), 1e-12);
  }
}

TEST(AnisotropicMatern, MajorAxisDecorrelatesSlower) {
  // angle = 0: x is the major axis (range 0.4), y minor (range 0.1).
  const AnisotropicMaternCovariance m(1.0, 0.4, 0.1, 0.0, 0.5);
  const Location o{0, 0, 0};
  const Location along_x{0.2, 0, 0};
  const Location along_y{0, 0.2, 0};
  EXPECT_GT(m(o, along_x), m(o, along_y));
}

TEST(AnisotropicMatern, RotationMovesTheMajorAxis) {
  const double quarter = 3.141592653589793 / 2.0;
  const AnisotropicMaternCovariance m(1.0, 0.4, 0.1, quarter, 0.5);
  const Location o{0, 0, 0};
  const Location along_x{0.2, 0, 0};
  const Location along_y{0, 0.2, 0};
  EXPECT_GT(m(o, along_y), m(o, along_x)) << "rotated 90°: y is now the major axis";
}

TEST(AnisotropicMatern, ScaledDistanceGeometry) {
  const AnisotropicMaternCovariance m(1.0, 2.0, 1.0, 0.0, 0.5);
  const Location o{0, 0, 0};
  EXPECT_NEAR(m.scaled_distance(o, {2.0, 0, 0}), 1.0, 1e-14);
  EXPECT_NEAR(m.scaled_distance(o, {0, 1.0, 0}), 1.0, 1e-14);
  EXPECT_NEAR(m.scaled_distance(o, {2.0, 1.0, 0}), std::sqrt(2.0), 1e-14);
}

TEST(AnisotropicMatern, CovarianceMatrixIsSpd) {
  Rng rng(5);
  auto locs = perturbed_grid_locations(80, rng);
  const AnisotropicMaternCovariance m(1.0, 0.3, 0.08, 0.6, 0.7, 1e-8);
  la::Matrix<double> sigma = covariance_matrix(m, locs);
  EXPECT_EQ(la::potrf(sigma.view()), 0);
}

TEST(AnisotropicMatern, SimulatedFieldShowsAnisotropy) {
  // Empirical check: along-major correlations exceed along-minor at equal
  // distance, averaged over replicates on a regular grid.
  Rng rng(11);
  std::vector<Location> locs;
  const std::size_t side = 10;
  for (std::size_t i = 0; i < side; ++i)
    for (std::size_t j = 0; j < side; ++j)
      locs.push_back({0.1 * static_cast<double>(i), 0.1 * static_cast<double>(j), 0});
  const AnisotropicMaternCovariance m(1.0, 0.5, 0.05, 0.0, 0.5, 1e-8);
  const auto fields = simulate_grf_many(m, locs, rng, 200);

  auto corr = [&](std::size_t i, std::size_t j) {
    double sij = 0, sii = 0, sjj = 0;
    for (const auto& f : fields) {
      sij += f[i] * f[j];
      sii += f[i] * f[i];
      sjj += f[j] * f[j];
    }
    return sij / std::sqrt(sii * sjj);
  };
  // Index layout: idx = i*side + j, x = 0.1*i (major axis), y = 0.1*j.
  double along_x = 0.0, along_y = 0.0;
  int count = 0;
  for (std::size_t i = 0; i + 3 < side; ++i)
    for (std::size_t j = 0; j + 3 < side; ++j) {
      along_x += corr(i * side + j, (i + 3) * side + j);
      along_y += corr(i * side + j, i * side + (j + 3));
      ++count;
    }
  EXPECT_GT(along_x / count, along_y / count + 0.2);
}

}  // namespace
}  // namespace gsx::geostat
