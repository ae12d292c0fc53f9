// Precision-dispatched tile kernels: the task bodies of the MP Cholesky
// (Algorithm 1). The written tile is the precision lead ('+' operand in the
// paper's notation); read operands are converted on demand to the kernel
// precision ('*' operands), mirroring PaRSEC's in-flight casting.
#pragma once

#include <span>

#include "common/precision.hpp"
#include "la/matrix.hpp"
#include "tile/tile.hpp"
#include "tlr/lr_kernels.hpp"

namespace gsx::cholesky {

/// Operand view of a tile at scalar T: zero-copy if the tile is stored
/// dense at T, otherwise a scratch copy converted straight from the stored
/// payload (the on-demand cast; a low-rank tile forms U V^T first).
template <typename T>
class DenseOperand {
 public:
  explicit DenseOperand(const tile::Tile& t) {
    if (t.format() == tile::TileFormat::Dense && t.precision() == precision_of<T>) {
      view_ = t.matrix<T>().cview();
    } else {
      scratch_ = t.to_dense<T>();
      view_ = scratch_.cview();
    }
  }
  [[nodiscard]] Span2D<const T> view() const noexcept { return view_; }

 private:
  la::Matrix<T> scratch_;
  Span2D<const T> view_;
};

/// Low-rank view of an LR tile promoted to FP64 compute precision.
class LrOperand {
 public:
  explicit LrOperand(const tile::Tile& t);
  [[nodiscard]] const tlr::LrView& view() const noexcept { return view_; }

 private:
  la::Matrix<double> u_scratch_;
  la::Matrix<double> v_scratch_;
  tlr::LrView view_;
};

/// POTRF on a dense FP64 diagonal tile, in place (lower).
/// Returns LAPACK-style info (0 = success).
int potrf_tile(tile::Tile& akk);

/// TRSM: A_mk := A_mk * L_kk^{-T}. Dense A_mk: kernel precision = its
/// storage. Low-rank A_mk = U V^T: only V is touched (V := L_kk^{-1} V).
void trsm_tile(const tile::Tile& lkk, tile::Tile& amk);

/// SYRK: A_mm := A_mm - A_mk A_mk^T; diagonal tiles compute in FP64, from a
/// dense or low-rank panel tile A_mk.
void syrk_tile(const tile::Tile& amk, tile::Tile& amm);

/// GEMM: A_mn := A_mn - A_mk A_nk^T for any dense/low-rank mix. All dense:
/// kernel precision = storage of A_mn, through gemm_dense_batch with one
/// item. A low-rank operand with a dense A_mn: FP64 compute, rounded back to
/// A_mn's storage. Low-rank A_mn: the product is accumulated in low-rank
/// form and re-truncated to `abs_tol` by `rounding`.
void gemm_tile(const tile::Tile& amk, const tile::Tile& ank, tile::Tile& amn,
               double abs_tol, tlr::RoundingMethod rounding);

/// One all-dense update C := C - A B^T of a batch sharing B.
struct DenseUpdate {
  const tile::Tile* a;
  tile::Tile* c;
};

/// The dense trailing update: C_i := C_i - A_i B^T for every item, where all
/// tiles are dense and every C_i has the same precision and shape. One
/// batched kernel call at the C tiles' storage precision (operands cast on
/// demand); bit-identical to updating the items one by one.
void gemm_dense_batch(const tile::Tile& b, std::span<const DenseUpdate> items);

}  // namespace gsx::cholesky
