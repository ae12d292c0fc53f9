// Precision-aware tile decisions (paper Section VI-C and Fig. 2).
//
// Two rules decide each tile's storage precision before factorization:
//  * Band rule (Fig. 2c): precision by distance from the diagonal — the
//    "fast path" previously studied on Shaheen-II/HAWK/Summit.
//  * Adaptive Frobenius rule (Fig. 2d): tile A_ij may be stored at unit
//    roundoff u_low iff ||A_ij||_F < eps * ||A||_F / (NT * u_low); the
//    perturbed matrix then satisfies ||A^ - A||_F <= eps * ||A||_F.
//    The paper instantiates eps = u_high (the high precision's epsilon); we
//    expose eps as the application accuracy target.
#pragma once

#include <cstddef>

#include "common/precision.hpp"
#include "tile/sym_tile_matrix.hpp"

namespace gsx::cholesky {

enum class PrecisionRule : unsigned char {
  AllFP64,            ///< reference dense FP64
  Band,               ///< Fig. 2(c): banded FP64/FP32/FP16
  AdaptiveFrobenius,  ///< Fig. 2(d): norm-thresholded per tile
};

[[nodiscard]] constexpr const char* precision_rule_name(PrecisionRule r) noexcept {
  switch (r) {
    case PrecisionRule::AllFP64: return "all-fp64";
    case PrecisionRule::Band: return "band";
    case PrecisionRule::AdaptiveFrobenius: return "adaptive-frobenius";
  }
  return "?";
}

struct BandConfig {
  std::size_t fp64_band = 1;  ///< |i-j| <  fp64_band -> FP64 (diag always)
  std::size_t fp32_band = 3;  ///< |i-j| <  fp32_band -> FP32; beyond -> FP16
};

struct PrecisionPolicy {
  PrecisionRule rule = PrecisionRule::AllFP64;
  BandConfig band;
  /// Accuracy target eps of the Frobenius rule (paper: u_high of FP64).
  double eps_target = 1.0e-8;
  /// Permit FP16 storage (the paper disables FP16 when the accumulation
  /// hardware is missing; we always accumulate in FP32).
  bool allow_fp16 = true;
  /// Permit BF16 storage (the paper's BF16/TF32 outlook, Section VII-A).
  /// Band rule: BF16 is the 16-bit tier when FP16 is disallowed. Adaptive
  /// rule: BF16 catches tiles FP16 loses to *underflow* rather than
  /// roundoff.
  bool allow_bf16 = false;
};

/// Decide the storage precision of tile (i, j) under the band rule. Beyond
/// `fp32_band` the tile takes the narrowest permitted 16-bit format (FP16
/// preferred over BF16 for its smaller roundoff), else stays FP32.
[[nodiscard]] Precision band_precision(std::size_t i, std::size_t j, const BandConfig& cfg,
                                       bool allow_fp16, bool allow_bf16 = false) noexcept;

/// Decide the storage precision of one tile under the Frobenius rule.
/// `tile_norm` is ||A_ij||_F, `global_norm` is ||A||_F, `nt` the tile count
/// per dimension, `tile_elems` the tile's element count.
///
/// The storage error of precision p is bounded by
///   u_p * ||A_ij||_F + sqrt(elems) * subnormal_ulp(p) / 2,
/// the second term covering gradual underflow (FP16 subnormals round with an
/// *absolute* floor of 2^-25, which the naive relative bound misses — without
/// it the paper's global guarantee ||A^ - A||_F <= eps ||A||_F fails for
/// tiles whose entries land in the subnormal range).
[[nodiscard]] Precision frobenius_precision(double tile_norm, double global_norm,
                                            std::size_t nt, double eps_target,
                                            bool allow_fp16, std::size_t tile_elems = 0,
                                            bool allow_bf16 = false) noexcept;

/// Statistics of a policy application.
struct PolicyStats {
  std::size_t fp64_tiles = 0;
  std::size_t fp32_tiles = 0;
  std::size_t fp16_tiles = 0;
  std::size_t bf16_tiles = 0;
  std::size_t bytes_before = 0;
  std::size_t bytes_after = 0;
};

/// The per-tile precision decision: choose dense tile (i, j)'s storage
/// precision under `policy`, with `global_norm` = ||A||_F for the Frobenius
/// rule, and demote it in place. Diagonal tiles stay FP64 (POTRF
/// stability). Under health auditing it also records the demotion and any
/// non-finite values it produced. Returns the chosen precision.
Precision demote_tile(tile::SymTileMatrix& a, std::size_t i, std::size_t j,
                      double global_norm, const PrecisionPolicy& policy);

/// demote_tile over every dense stored tile, against a.frobenius_norm().
/// The norm and the tiles' decisions run over `workers` threads; the norm
/// is summed and the health records are written in tile order (column by
/// column), so tiles, statistics and ledger do not depend on `workers`.
/// Returns what was decided.
PolicyStats apply_precision_policy(tile::SymTileMatrix& a, const PrecisionPolicy& policy,
                                   std::size_t workers = 1);

}  // namespace gsx::cholesky
