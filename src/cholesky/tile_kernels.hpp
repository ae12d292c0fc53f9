// Precision-dispatched tile kernels: the task bodies of the MP Cholesky
// (Algorithm 1). The written tile is the precision lead ('+' operand in the
// paper's notation); read operands are converted on demand to the kernel
// precision ('*' operands), mirroring PaRSEC's in-flight casting.
#pragma once

#include "common/precision.hpp"
#include "la/matrix.hpp"
#include "tile/tile.hpp"
#include "tlr/lr_kernels.hpp"

namespace gsx::cholesky {

/// Operand view of a tile at FP64: zero-copy if the tile is stored FP64
/// dense, otherwise a converted scratch copy (the on-demand cast).
class F64Operand {
 public:
  explicit F64Operand(const tile::Tile& t);
  [[nodiscard]] Span2D<const double> view() const noexcept { return view_; }

 private:
  la::Matrix<double> scratch_;
  Span2D<const double> view_;
};

/// Operand view of a tile at FP32 (converted scratch unless stored FP32).
class F32Operand {
 public:
  explicit F32Operand(const tile::Tile& t);
  [[nodiscard]] Span2D<const float> view() const noexcept { return view_; }

 private:
  la::Matrix<float> scratch_;
  Span2D<const float> view_;
};

/// Operand trimmed to FP16 storage (for the SHGEMM path).
class F16Operand {
 public:
  explicit F16Operand(const tile::Tile& t);
  [[nodiscard]] Span2D<const half> view() const noexcept { return view_; }

 private:
  la::Matrix<half> scratch_;
  Span2D<const half> view_;
};

/// Operand trimmed to BF16 storage (for the SBGEMM path).
class Bf16Operand {
 public:
  explicit Bf16Operand(const tile::Tile& t);
  [[nodiscard]] Span2D<const bfloat16> view() const noexcept { return view_; }

 private:
  la::Matrix<bfloat16> scratch_;
  Span2D<const bfloat16> view_;
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
/// kernel precision = storage of A_mn. A low-rank operand with a dense
/// A_mn: FP64 compute, rounded back to A_mn's storage. Low-rank A_mn: the
/// product is accumulated in low-rank form and re-truncated to `abs_tol`
/// by `rounding`.
void gemm_tile(const tile::Tile& amk, const tile::Tile& ank, tile::Tile& amn,
               double abs_tol, tlr::RoundingMethod rounding);

}  // namespace gsx::cholesky
