// Tile Cholesky factorization variants over the task runtime.
//
// Three variants reproduce the paper's comparison:
//  * dense FP64    — apply_precision_policy(AllFP64) + tile_cholesky_dense
//  * MP dense      — band or adaptive-Frobenius policy + tile_cholesky_dense
//  * MP dense/TLR  — policy on the dense band + compress_offband +
//                    tile_cholesky_tlr
#pragma once

#include "cholesky/precision_policy.hpp"
#include "runtime/task_graph.hpp"
#include "tile/sym_tile_matrix.hpp"
#include "tlr/compression.hpp"

namespace gsx::cholesky {

struct FactorOptions {
  std::size_t workers = 1;
  /// Unread: the task runtime has one ready-queue policy (rt::SchedPolicy).
  rt::SchedPolicy sched = rt::SchedPolicy::Priority;
  /// Rounding used by the TLR path's low-rank accumulations.
  tlr::RoundingMethod rounding = tlr::RoundingMethod::Rrqr;
  /// Precision rule that shaped the matrix — forensic context only (the
  /// factorization itself reads per-tile precisions, not the rule).
  PrecisionRule rule = PrecisionRule::AllFP64;
};

struct FactorReport {
  /// 0 on success; otherwise 1-based global index of the failing pivot.
  int info = 0;
  double seconds = 0.0;
  rt::GraphStats graph;
  /// Failing tile index when info != 0 (diagonal tile of the bad pivot).
  long failed_tile = -1;
};

/// Mixed-precision dense tile Cholesky (Algorithm 1). All tiles must be
/// dense (checked up front); per-tile precisions as set by
/// apply_precision_policy. On return the stored triangle holds the tile
/// Cholesky factor (each tile at its own storage precision).
FactorReport tile_cholesky_dense(tile::SymTileMatrix& a, const FactorOptions& opts);

struct TlrCompressOptions {
  double tol = 1.0e-8;          ///< absolute Frobenius tolerance per tile
  std::size_t band_size = 1;    ///< |i-j| < band_size stays dense (>= 1)
  tlr::CompressionMethod method = tlr::CompressionMethod::SVD;
  /// Structure-aware cap (Algorithm 2 outcome): a tile whose compressed
  /// rank exceeds this is converted back to dense. 0 = half the tile side.
  std::size_t max_rank = 0;
  /// Store low-rank factors in FP32 where the Frobenius rule permits.
  bool lr_fp32 = true;
  double eps_target = 1.0e-8;   ///< accuracy target for the FP32-LR decision
};

struct CompressStats {
  std::size_t dense_tiles = 0;     ///< stored tiles left dense (incl. band)
  std::size_t lr_tiles = 0;
  std::size_t lr_fp32_tiles = 0;   ///< subset of lr_tiles stored in FP32
  std::size_t reverted_tiles = 0;  ///< off-band tiles sent back to dense
  std::size_t max_rank = 0;
  double avg_rank = 0.0;           ///< over low-rank tiles
  std::size_t bytes_before = 0;
  std::size_t bytes_after = 0;
};

/// The per-tile structure-aware decision (Algorithm 2) for dense tile
/// (i, j): compress it, keep it dense if its rank exceeds the cap or its
/// factors would store at least as many entries as the tile, and
/// store its factors in FP32 where the Frobenius rule permits against
/// `global_norm` = ||A||_F. Records the compression flops and, under health
/// auditing, the tile's non-finite input and observed error.
void compress_tile(tile::SymTileMatrix& a, std::size_t i, std::size_t j,
                   double global_norm, const TlrCompressOptions& opts);

/// compress_tile over every off-band tile, against a.frobenius_norm():
/// run after generation, before tile_cholesky_tlr.
CompressStats compress_offband(tile::SymTileMatrix& a, const TlrCompressOptions& opts,
                               std::size_t workers = 1);

/// TLR tile Cholesky over mixed dense/low-rank tiles: the same DAG and
/// kernels as tile_cholesky_dense, which pick their low-rank routines from
/// the tile formats. `abs_tol` bounds the rounding of low-rank
/// accumulations (use the compression tolerance).
FactorReport tile_cholesky_tlr(tile::SymTileMatrix& a, double abs_tol,
                               const FactorOptions& opts);

}  // namespace gsx::cholesky
