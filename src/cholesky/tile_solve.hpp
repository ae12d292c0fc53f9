// Triangular solves, log-determinant and reconstruction over a factored
// tile matrix (dense and/or low-rank tiles, mixed precision).
//
// These implement the second half of the log-likelihood evaluation
// (log|Sigma| and Z^T Sigma^{-1} Z) and the multi-RHS solves of the
// prediction phase, applied to the tile Cholesky factor produced by
// tile_cholesky_dense / tile_cholesky_tlr.
//
// A factor that serves many kriging requests is applied through
// PackedOffdiag: its dense off-diagonal tiles packed once, as FP64, into the
// packed GEMM's A layout (la::PackedMatrix), so a request re-packs and
// re-widens nothing. Every kernel of the multi-RHS solve takes each column
// through the same operations at every width: the per-request GEMMs run the
// micro-kernel on the pre-packed tiles, low-rank tiles keep the LrOperand
// path in the reference accumulation order, and the diagonal solves are
// la::ref::trsm_left. A point's answer therefore does not depend on the
// points solved with it.
#pragma once

#include <span>
#include <vector>

#include "geostat/likelihood.hpp"
#include "geostat/prediction.hpp"
#include "la/gemm_kernel.hpp"
#include "la/matrix.hpp"
#include "obs/trace.hpp"
#include "tile/sym_tile_matrix.hpp"

namespace gsx::cholesky {

/// Per-call telemetry for the serving-path solves: the request trace context
/// flows IN (stamped onto flight-recorder events and numerical-failure
/// forensics) and the phase breakdown flows OUT (the wire layer reports it
/// as the response "timing" object).
struct SolveTelemetry {
  obs::RequestContext ctx;        ///< in: request id for events/errors
  double assemble_seconds = 0.0;  ///< out: Sigma_nm assembly
  double solve_seconds = 0.0;     ///< out: triangular solve + mean/variance
};

/// log|Sigma| = 2 * sum log L_ii from the factored diagonal tiles.
double tile_logdet(const tile::SymTileMatrix& l);

/// z := L^{-1} z: la::ref::trsm_left on each diagonal tile and la::gemv_sub
/// (FP64 and FP32 tiles read in place) on each dense off-diagonal one, with
/// the bits of the per-tile substitution loops.
void tile_forward_solve(const tile::SymTileMatrix& l, std::span<double> z);

/// z := L^{-T} z.
void tile_backward_solve(const tile::SymTileMatrix& l, std::span<double> z);

/// Full log-likelihood from a factored tile matrix and observations.
geostat::LoglikValue tile_loglik(const tile::SymTileMatrix& l, std::span<const double> z);

/// The dense off-diagonal tiles of a factor, each packed once as an FP64
/// GEMM operand; low-rank tiles are not packed. Built once per served model
/// (serve::LoadedModel) and read concurrently by its requests.
class PackedOffdiag {
 public:
  PackedOffdiag() = default;
  explicit PackedOffdiag(const tile::SymTileMatrix& l);

  /// Tile (i, k), i > k, packed; nullptr where the tile is low-rank.
  [[nodiscard]] const la::PackedMatrix* at(std::size_t i, std::size_t k) const;
  /// Bytes of packed panels held.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  std::size_t nt_ = 0;
  std::vector<la::PackedMatrix> tiles_;  ///< strict lower triangle, row by row
};

/// Multi-right-hand-side forward solve (the prediction phase, Eq. 4-5,
/// applies the factor to Sigma_nm's columns): B := L^{-1} B for a dense
/// n x m block B, with `packed` = PackedOffdiag(l). B's columns are cut
/// into blocks by a rule of m alone (one block below 32 columns, at most
/// 16 blocks of at least 16 columns), and `workers` only sets how many
/// blocks are solved concurrently on the runtime worker pool. A column's
/// bits depend on the factor, the column and the ISA alone: not on m, the
/// blocks or `workers`.
void tile_forward_solve_multi(const tile::SymTileMatrix& l, const PackedOffdiag& packed,
                              Span2D<double> b, std::size_t workers = 1);

/// Kriging directly through the tile factor: never materializes a dense L,
/// so the prediction phase keeps the TLR memory footprint (the paper's
/// "forward and backward substitutions to several right-hand sides").
/// This is the tile-native entry point GsxModel::predict uses (it packs
/// the factor on entry and runs tile_krige_solved); the tests hold it to
/// a dense kriging oracle.
geostat::KrigingResult tile_krige(const geostat::CovarianceModel& model,
                                  const tile::SymTileMatrix& factored,
                                  std::span<const geostat::Location> train_locs,
                                  std::span<const double> z_train,
                                  std::span<const geostat::Location> test_locs,
                                  bool with_variance = true, std::size_t workers = 1);

/// Kriging from an already forward-solved observation vector
/// y = L^{-1} Z_n (the serving layer caches y and `packed` =
/// PackedOffdiag(factored) per fitted model and amortizes both across every
/// request batch): assembles Sigma_nm (one block of test points per
/// worker), applies the factor to its columns in parallel, and forms
/// means/variances. Each point's mean and variance equal the same point's
/// solved alone, bit for bit. `y_solved` must have length n.
/// `telemetry` (optional) carries the request trace context in and the
/// assembly/solve timing breakdown out. Throws NumericalError (with the
/// request id in its context) when the computed means go non-finite — the
/// serving layer turns that into a flight-recorder dump.
geostat::KrigingResult tile_krige_solved(const geostat::CovarianceModel& model,
                                         const tile::SymTileMatrix& factored,
                                         const PackedOffdiag& packed,
                                         std::span<const double> y_solved,
                                         std::span<const geostat::Location> train_locs,
                                         std::span<const geostat::Location> test_locs,
                                         bool with_variance = true,
                                         std::size_t workers = 1,
                                         SolveTelemetry* telemetry = nullptr);

}  // namespace gsx::cholesky
