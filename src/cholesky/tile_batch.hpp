// Batched trailing-update executor for the tile Cholesky DAG.
//
// All GEMMs of one (k, n) panel column share the B operand A(n,k); grouping
// them into one la::*gemm_batch call re-uses the packed op(B) panel across
// the whole group and amortises the per-call conversion/packing overhead
// that dominates small-tile TLR sweeps. Results are bit-identical to issuing
// the per-tile kernels one by one.
#pragma once

#include <cstddef>
#include <vector>

#include "cholesky/tile_kernels.hpp"
#include "tile/sym_tile_matrix.hpp"

namespace gsx::cholesky {

/// Max trailing-update GEMMs grouped into one DAG task (and thus one batched
/// kernel call). Bounds both task granularity and the converted-operand
/// scratch footprint of a single batch.
inline constexpr std::size_t kGemmBatchMax = 32;

/// Apply A(m,n) -= A(m,k) * A(n,k)^T for every m in `ms`.
///
/// Dense tiles are grouped by (output precision, rows) — cols and the inner
/// dimension are fixed by (n, k) — and each group runs as one
/// gemm_dense_batch. An update touching a low-rank tile runs the per-op
/// gemm_tile with the given rounding tolerance.
void gemm_tile_batch(tile::SymTileMatrix& a, std::size_t k, std::size_t n,
                     const std::vector<std::size_t>& ms, double abs_tol);

}  // namespace gsx::cholesky
