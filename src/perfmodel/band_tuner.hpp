// Algorithm 2: auto-tuning band_size_dense.
//
// Sub-diagonal d runs dense when its predicted dense time beats its
// predicted TLR time within a fluctuation factor (`dense_wins`). The band is
// decided from the outside in: walking from sub-diagonal nt-1 toward the
// diagonal, the first sub-diagonal d where dense wins sets
// band_size_dense = d + 1, and every sub-diagonal nearer the diagonal joins
// the band unexamined. GsxModel::prepare compresses one sub-diagonal per
// step of that walk, so in-band tiles are never compressed. Tile ranks
// follow the point ordering rather than the sub-diagonal index, so the
// winner can flip more than once; the outermost dense win decides.
#pragma once

#include <cstddef>
#include <vector>

#include "perfmodel/kernel_model.hpp"
#include "tile/sym_tile_matrix.hpp"

namespace gsx::perfmodel {

struct BandDecision {
  std::size_t band_size_dense = 1;
  /// Predicted dense/TLR seconds of sub-diagonal d at index d - 1, one entry
  /// per sub-diagonal (diagnostics).
  std::vector<double> dense_seconds;
  std::vector<double> tlr_seconds;
};

/// The eager form of the walk: `a` must hold its off-diagonal tiles
/// compressed (band_size = 1). Examines every sub-diagonal and returns
/// band_size_dense = 1 + the outermost sub-diagonal where dense wins (1 when
/// low rank wins everywhere). The band counts the diagonal, i.e. a value of
/// 3 means sub-diagonals 1 and 2 should be stored dense (cf. Fig. 3(b)).
BandDecision tune_band_size(const tile::SymTileMatrix& a, const KernelModel& model,
                            double fluctuation = 1.0);

/// Algorithm 2's test for one sub-diagonal: true when executing it dense is
/// predicted faster than low-rank, i.e. dense_s < fluctuation * tlr_s. Only
/// sub-diagonal `subdiag` of `a` is read, so the rest of the matrix may
/// still be dense. Writes the two predictions when the pointers are given.
[[nodiscard]] bool dense_wins(const tile::SymTileMatrix& a, const KernelModel& model,
                              std::size_t subdiag, double fluctuation,
                              double* dense_s = nullptr, double* tlr_s = nullptr);

/// Predict the per-sub-diagonal cost of TRSM+GEMM executed dense at the
/// given precision mix vs executed low-rank (exposed for the ablation
/// bench; `dense_wins` wraps it).
void predict_subdiagonal_cost(const tile::SymTileMatrix& a, const KernelModel& model,
                              std::size_t subdiag, double& dense_out, double& tlr_out);

}  // namespace gsx::perfmodel
