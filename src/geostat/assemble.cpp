#include "geostat/assemble.hpp"

#include "common/error.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gsx::geostat {

namespace {

/// Covariance-evaluation counter shared by every assembly path: the
/// generation phase is measured in kernel evaluations, not flops (a Matérn
/// evaluation's Bessel cost has no meaningful flop count).
void count_cov_evals(std::size_t n) {
  if (!obs::enabled()) return;
  obs::Registry::instance().counter("assemble.cov_evals").add(n);
}

}  // namespace

la::Matrix<double> covariance_matrix(const CovarianceModel& model,
                                     std::span<const Location> locs) {
  const std::size_t n = locs.size();
  GSX_REQUIRE(n > 0, "covariance_matrix: empty location set");
  const obs::ScopedTimer timer("assemble.seconds");
  count_cov_evals(n * (n + 1) / 2);
  la::Matrix<double> sigma(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    // Column j from the diagonal down, mirrored into row j.
    model.fill(locs.subspan(j), locs.subspan(j, 1), sigma.view().sub(j, j, n - j, 1));
    for (std::size_t i = j + 1; i < n; ++i) sigma(j, i) = sigma(i, j);
  }
  return sigma;
}

la::Matrix<double> cross_covariance(const CovarianceModel& model,
                                    std::span<const Location> a,
                                    std::span<const Location> b) {
  GSX_REQUIRE(!a.empty() && !b.empty(), "cross_covariance: empty location set");
  const obs::ScopedTimer timer("assemble.seconds");
  count_cov_evals(a.size() * b.size());
  la::Matrix<double> sigma(a.size(), b.size());
  model.fill(a, b, sigma.view());
  return sigma;
}

void fill_covariance_tiles(tile::SymTileMatrix& tiles, const CovarianceModel& model,
                           std::span<const Location> locs, std::size_t num_workers) {
  GSX_REQUIRE(locs.size() == tiles.n(), "fill_covariance_tiles: size mismatch");
  // The phase observes into the same "assemble.seconds" histogram as the
  // dense assemblies' timers above.
  const obs::ScopedPhase phase(obs::Phase::Assemble);
  tiles.generate(
      [&](std::size_t gi0, std::size_t gj0, Span2D<double> block) {
        model.fill(locs.subspan(gi0, block.rows()), locs.subspan(gj0, block.cols()), block);
      },
      num_workers);
  if (obs::enabled()) {
    std::size_t elems = 0;
    for (std::size_t j = 0; j < tiles.nt(); ++j)
      for (std::size_t i = j; i < tiles.nt(); ++i)
        elems += tiles.at(i, j).rows() * tiles.at(i, j).cols();
    count_cov_evals(elems);
  }
  if (obs::health_enabled()) {
    // A kernel evaluated at a degenerate parameter point (zero range,
    // negative smoothness) emits NaN here and surfaces many layers later as
    // a mysterious non-SPD pivot; the sentinel names the first bad tile.
    for (std::size_t j = 0; j < tiles.nt(); ++j) {
      for (std::size_t i = j; i < tiles.nt(); ++i) {
        const std::size_t bad = tiles.at(i, j).nonfinite_count();
        if (bad > 0) {
          obs::record_nonfinite("assemble", static_cast<long>(i),
                                static_cast<long>(j), bad);
          obs::log_warn("assemble", "non-finite covariance entries",
                        {obs::lf("tile_i", static_cast<std::uint64_t>(i)),
                         obs::lf("tile_j", static_cast<std::uint64_t>(j)),
                         obs::lf("count", static_cast<std::uint64_t>(bad))});
        }
      }
    }
  }
}

}  // namespace gsx::geostat
