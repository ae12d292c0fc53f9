#include "cholesky/precision_policy.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "runtime/task_graph.hpp"

namespace gsx::cholesky {

Precision band_precision(std::size_t i, std::size_t j, const BandConfig& cfg,
                         bool allow_fp16, bool allow_bf16) noexcept {
  const std::size_t dist = (i >= j) ? i - j : j - i;
  if (dist < cfg.fp64_band) return Precision::FP64;
  if (dist < cfg.fp32_band) return Precision::FP32;
  if (allow_fp16) return Precision::FP16;
  if (allow_bf16) return Precision::BF16;
  return Precision::FP32;
}

Precision frobenius_precision(double tile_norm, double global_norm, std::size_t nt,
                              double eps_target, bool allow_fp16,
                              std::size_t tile_elems, bool allow_bf16) noexcept {
  // A tile may be stored at unit roundoff u_p iff its worst-case storage
  // error  u_p * ||A_ij||_F + sqrt(elems) * subnormal_floor(p)  stays below
  // the per-tile budget  eps * ||A||_F / NT, so the NT x NT tile errors sum
  // (in Frobenius) to at most eps * ||A||_F.
  const double budget = eps_target * global_norm / static_cast<double>(nt);
  const double root_elems = std::sqrt(static_cast<double>(tile_elems));
  auto fits = [&](Precision p) {
    return unit_roundoff(p) * tile_norm + root_elems * subnormal_floor(p) < budget;
  };
  // FP16 first (smaller roundoff); tiles it loses to *underflow* (not to
  // roundoff) fall through to BF16, whose FP32-like range has essentially
  // no subnormal floor at geostatistical magnitudes.
  if (allow_fp16 && fits(Precision::FP16)) return Precision::FP16;
  if (allow_bf16 && fits(Precision::BF16)) return Precision::BF16;
  if (fits(Precision::FP32)) return Precision::FP32;
  return Precision::FP64;
}

namespace {

/// Measured storage perturbation ||A^_ij - A_ij||_F of a demoted tile.
double demotion_error(const tile::Tile& after, const la::Matrix<double>& before) {
  const la::Matrix<double> rounded = after.to_dense64();
  double s = 0.0;
  for (std::size_t jj = 0; jj < before.cols(); ++jj)
    for (std::size_t ii = 0; ii < before.rows(); ++ii) {
      const double d = rounded(ii, jj) - before(ii, jj);
      s += d * d;
    }
  return std::sqrt(s);
}

/// One tile's decision and what it leaves for the health ledger and the
/// flight recorder. Those are written by record(), in tile order, so a
/// policy that decides tiles in parallel records what the serial one did.
struct Demotion {
  Precision chosen = Precision::FP64;
  bool audited = false;  ///< health auditing recorded a demotion
  obs::DemotionRecord rec;
  std::size_t nonfinite = 0;  ///< non-finite values the demotion produced
};

/// Choose dense tile (i, j)'s precision and convert it; touches no other
/// tile and no shared state.
Demotion decide(tile::SymTileMatrix& a, std::size_t i, std::size_t j, double global_norm,
                const PrecisionPolicy& policy) {
  tile::Tile& t = a.at(i, j);
  GSX_REQUIRE(t.format() == tile::TileFormat::Dense, "demote_tile: expects a dense tile");
  const std::size_t nt = a.nt();
  Precision p = Precision::FP64;
  if (i != j) {  // diagonal stays FP64
    switch (policy.rule) {
      case PrecisionRule::AllFP64:
        p = Precision::FP64;
        break;
      case PrecisionRule::Band:
        p = band_precision(i, j, policy.band, policy.allow_fp16, policy.allow_bf16);
        break;
      case PrecisionRule::AdaptiveFrobenius:
        p = frobenius_precision(t.frobenius(), global_norm, nt, policy.eps_target,
                                policy.allow_fp16, t.rows() * t.cols(), policy.allow_bf16);
        break;
    }
  }
  Demotion d;
  d.chosen = p;
  if (!obs::health_enabled() || p == Precision::FP64) {
    t.convert_dense(p);
    return d;
  }
  const double tile_norm = t.frobenius();
  const la::Matrix<double> before = t.to_dense64();
  t.convert_dense(p);
  d.audited = true;
  obs::DemotionRecord& rec = d.rec;
  rec.i = static_cast<std::uint32_t>(i);
  rec.j = static_cast<std::uint32_t>(j);
  rec.chosen = p;
  rec.tile_norm = tile_norm;
  rec.budget = (policy.rule == PrecisionRule::AdaptiveFrobenius)
                   ? policy.eps_target * global_norm / static_cast<double>(nt)
                   : 0.0;
  rec.guaranteed_err =
      unit_roundoff(p) * tile_norm +
      std::sqrt(static_cast<double>(t.rows() * t.cols())) * subnormal_floor(p);
  rec.observed_err = demotion_error(t, before);
  // Demotion can overflow narrow formats (FP16 range) into Inf: the rule
  // only bounds roundoff, so catch range violations here.
  d.nonfinite = t.nonfinite_count();
  return d;
}

/// Write what decide() left for tile (i, j).
void record(const Demotion& d, std::size_t i, std::size_t j) {
  if (!d.audited) return;
  obs::record_demotion(d.rec);
  GSX_FLIGHT(obs::EventKind::TileDemotion, 0, i, j, d.rec.observed_err);
  if (d.nonfinite > 0) {
    obs::record_nonfinite("convert", static_cast<long>(i), static_cast<long>(j), d.nonfinite);
    obs::log_warn("policy", "non-finite values after precision demotion",
                  {obs::lf("tile_i", static_cast<std::uint64_t>(i)),
                   obs::lf("tile_j", static_cast<std::uint64_t>(j)),
                   obs::lf("precision", std::string(precision_name(d.chosen))),
                   obs::lf("count", static_cast<std::uint64_t>(d.nonfinite))});
  }
}

}  // namespace

Precision demote_tile(tile::SymTileMatrix& a, std::size_t i, std::size_t j,
                      double global_norm, const PrecisionPolicy& policy) {
  const Demotion d = decide(a, i, j, global_norm, policy);
  record(d, i, j);
  return d.chosen;
}

PolicyStats apply_precision_policy(tile::SymTileMatrix& a, const PrecisionPolicy& policy,
                                   std::size_t workers) {
  PolicyStats stats;
  stats.bytes_before = a.footprint_bytes();
  const std::size_t nt = a.nt();
  // Auditing checks the rule's promise against the measured perturbation,
  // which needs the global norm even for rules that don't consult it.
  const bool audit = obs::health_enabled();

  // The Frobenius rule needs the global norm, accumulated tile-by-tile
  // (the paper stores no global copy of the matrix).
  const double global_norm =
      (policy.rule == PrecisionRule::AdaptiveFrobenius || audit) ? a.frobenius_norm(workers)
                                                                 : 0.0;
  if (audit)
    obs::record_bound_context(precision_rule_name(policy.rule), policy.eps_target,
                              global_norm, nt);

  // Low-rank tiles carry their own precision decision (made during
  // compression); the dense-tile rule does not apply to them.
  std::vector<std::pair<std::size_t, std::size_t>> coords;
  for (std::size_t j = 0; j < nt; ++j)
    for (std::size_t i = j; i < nt; ++i)
      if (a.at(i, j).format() == tile::TileFormat::Dense) coords.emplace_back(i, j);
  std::vector<Demotion> decided(coords.size());
  rt::parallel_for(0, coords.size(), workers, [&](std::size_t c) {
    decided[c] = decide(a, coords[c].first, coords[c].second, global_norm, policy);
  });
  for (std::size_t c = 0; c < coords.size(); ++c) {
    record(decided[c], coords[c].first, coords[c].second);
    switch (decided[c].chosen) {
      case Precision::FP64: ++stats.fp64_tiles; break;
      case Precision::FP32: ++stats.fp32_tiles; break;
      case Precision::FP16: ++stats.fp16_tiles; break;
      case Precision::BF16: ++stats.bf16_tiles; break;
    }
  }
  stats.bytes_after = a.footprint_bytes();
  return stats;
}

}  // namespace gsx::cholesky
