#include "cholesky/precision_policy.hpp"

#include <cmath>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"

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

}  // namespace

Precision demote_tile(tile::SymTileMatrix& a, std::size_t i, std::size_t j,
                      double global_norm, const PrecisionPolicy& policy) {
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
  if (!obs::health_enabled() || p == Precision::FP64) {
    t.convert_dense(p);
    return p;
  }
  const double tile_norm = t.frobenius();
  const la::Matrix<double> before = t.to_dense64();
  t.convert_dense(p);
  obs::DemotionRecord rec;
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
  obs::record_demotion(rec);
  GSX_FLIGHT(obs::EventKind::TileDemotion, 0, i, j, rec.observed_err);
  // Demotion can overflow narrow formats (FP16 range) into Inf: the rule
  // only bounds roundoff, so catch range violations here.
  const std::size_t bad = t.nonfinite_count();
  if (bad > 0) {
    obs::record_nonfinite("convert", static_cast<long>(i), static_cast<long>(j), bad);
    obs::log_warn("policy", "non-finite values after precision demotion",
                  {obs::lf("tile_i", static_cast<std::uint64_t>(i)),
                   obs::lf("tile_j", static_cast<std::uint64_t>(j)),
                   obs::lf("precision", std::string(precision_name(p))),
                   obs::lf("count", static_cast<std::uint64_t>(bad))});
  }
  return p;
}

PolicyStats apply_precision_policy(tile::SymTileMatrix& a, const PrecisionPolicy& policy) {
  PolicyStats stats;
  stats.bytes_before = a.footprint_bytes();
  const std::size_t nt = a.nt();
  // Auditing checks the rule's promise against the measured perturbation,
  // which needs the global norm even for rules that don't consult it.
  const bool audit = obs::health_enabled();

  // The Frobenius rule needs the global norm, accumulated tile-by-tile
  // (the paper stores no global copy of the matrix).
  const double global_norm =
      (policy.rule == PrecisionRule::AdaptiveFrobenius || audit) ? a.frobenius_norm()
                                                                 : 0.0;
  if (audit)
    obs::record_bound_context(precision_rule_name(policy.rule), policy.eps_target,
                              global_norm, nt);

  for (std::size_t j = 0; j < nt; ++j) {
    for (std::size_t i = j; i < nt; ++i) {
      // Low-rank tiles carry their own precision decision (made during
      // compression); the dense-tile rule does not apply to them.
      if (a.at(i, j).format() != tile::TileFormat::Dense) continue;
      switch (demote_tile(a, i, j, global_norm, policy)) {
        case Precision::FP64: ++stats.fp64_tiles; break;
        case Precision::FP32: ++stats.fp32_tiles; break;
        case Precision::FP16: ++stats.fp16_tiles; break;
        case Precision::BF16: ++stats.bf16_tiles; break;
      }
    }
  }
  stats.bytes_after = a.footprint_bytes();
  return stats;
}

}  // namespace gsx::cholesky
