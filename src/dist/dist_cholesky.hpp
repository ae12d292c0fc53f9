// Distributed tile Cholesky: one rank's slice of Algorithm 1 under 2D
// block-cyclic ownership (dist/placement.hpp), with remote operand tiles
// arriving over the TileTransport data plane.
//
// Execution model (the PaRSEC idea, on this repo's runtime):
//   - every rank unrolls the SAME global task loop but submits only the
//     tasks whose output tile it owns;
//   - a remote operand becomes an externally-completed "recv" task in the
//     TaskGraph plus a staging slot; the transport's delivery callback
//     stages the tile and notify()s the task, releasing local consumers
//     without parking a worker thread in a blocking receive;
//   - a task whose output other ranks consume ships the finished tile from
//     inside its own body (potrf broadcasts down the panel, trsm to the
//     trailing update owners) — at the tile's *stored* precision.
//
// Parity with the single-process path: ranks and oracle generate, decide
// and factor tiles through GsxModel's own functions
// (SymTileMatrix::generate_tile, cholesky::demote_tile and compress_tile,
// the format-dispatched tile kernels). Every per-tile decision is a pure
// function of (i, j, tile values, global Frobenius norm); the global norm
// is allreduced through the coordinator and the oracle is handed that same
// number, so a distributed run and the oracle make bit-identical decisions
// and, with the kernel order fixed by the DAG's dependency chains, produce
// bit-identical factors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/placement.hpp"
#include "tile/sym_tile_matrix.hpp"
#include "tile/tile.hpp"

namespace gsx::dist {

/// Which per-tile storage policy shapes the matrix before factorization.
enum class DistPolicy : unsigned char {
  Dense,           ///< all tiles dense FP64 (reference)
  MixedPrecision,  ///< adaptive-Frobenius dense demotion (FP64/32/16)
  Tlr,             ///< dense band + low-rank off-band tiles
};

[[nodiscard]] constexpr const char* dist_policy_name(DistPolicy p) noexcept {
  switch (p) {
    case DistPolicy::Dense: return "dense";
    case DistPolicy::MixedPrecision: return "mp";
    case DistPolicy::Tlr: return "tlr";
  }
  return "?";
}

/// Parse "dense" / "mp" / "tlr"; throws InvalidArgument otherwise.
[[nodiscard]] DistPolicy parse_dist_policy(const std::string& name);

/// The synthetic Matérn problem every rank regenerates locally (only the
/// owned tiles are materialized). Deterministic in `seed`: all ranks and the
/// oracle see the same Sigma.
struct DistProblemConfig {
  std::size_t n = 512;
  std::size_t tile_size = 64;
  std::uint64_t seed = 7;
  double range = 0.1;
  double smoothness = 0.5;
  double nugget = 1e-6;
};

/// One rank's run parameters.
struct DistRunConfig {
  int rank = 0;
  int nprocs = 1;
  std::uint16_t coord_port = 0;  ///< launcher's control-plane port
  std::size_t workers = 2;       ///< task-graph worker threads
  DistPolicy policy = DistPolicy::Dense;
  std::size_t ooc_bytes = 0;     ///< >0: out-of-core pool byte bound
  std::string spill_dir;         ///< required when ooc_bytes > 0
  std::size_t heartbeats = 3;    ///< clock-alignment beats to emit
};

/// What one rank reports back.
struct DistResult {
  double global_norm = 0.0;      ///< allreduced ||Sigma||_F
  double factor_seconds = 0.0;
  RankStats stats;               ///< wire + spill counters of this rank
  /// Rank 0 only: the gathered factor (every stored tile, own + received).
  std::unique_ptr<tile::SymTileMatrix> factor;
};

/// Partial weighted sum of squares (off-diagonal tiles count twice) over
/// `coords` — the local contribution to ||Sigma||_F^2 before the allreduce.
[[nodiscard]] double weighted_sumsq(
    const tile::SymTileMatrix& a,
    const std::vector<std::pair<std::size_t, std::size_t>>& coords);

/// Execute one rank end-to-end: rendezvous, generate owned tiles, policy,
/// factorize with remote-dependency tasks, gather to rank 0, report stats.
/// Throws on any failure (the caller reports dist_done ok=false).
DistResult run_dist_rank(const DistProblemConfig& prob, const DistRunConfig& run);

/// Single-process reference factorization: fill_covariance_tiles, the same
/// per-tile decisions as the distributed run, then tile_cholesky_dense or
/// tile_cholesky_tlr (pass the allreduced global_norm from DistResult so
/// precision choices match bit-for-bit).
[[nodiscard]] std::unique_ptr<tile::SymTileMatrix> oracle_factor(
    const DistProblemConfig& prob, DistPolicy policy, double global_norm,
    std::size_t workers);

/// Element-wise comparison of two factors at stored precision.
struct FactorComparison {
  bool identical = false;       ///< every stored tile byte-identical
  std::size_t tiles_compared = 0;
  std::size_t mismatched_tiles = 0;
  double max_abs_diff = 0.0;    ///< over FP64-materialized tiles (diagnostic)
};
[[nodiscard]] FactorComparison compare_factors(const tile::SymTileMatrix& a,
                                               const tile::SymTileMatrix& b);

}  // namespace gsx::dist
