#include "cholesky/tile_kernels.hpp"

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/convert.hpp"
#include "la/half_blas.hpp"
#include "la/lapack.hpp"
#include "obs/flops.hpp"
#include "obs/trace.hpp"

namespace gsx::cholesky {

using obs::KernelOp;
using tile::Tile;
using tile::TileFormat;

namespace {

/// Ledger + per-task trace metadata for one dense kernel invocation.
inline void account(KernelOp op, Precision p, std::uint64_t flops,
                    std::int64_t rank = -1) {
  if (!obs::enabled()) return;
  obs::add_flops(op, p, flops);
  obs::annotate_task(p, rank, flops);
}

}  // namespace

F64Operand::F64Operand(const Tile& t) {
  if (t.format() == TileFormat::Dense && t.precision() == Precision::FP64) {
    view_ = t.d64().cview();
  } else {
    scratch_ = t.to_dense64();
    view_ = scratch_.cview();
  }
}

F32Operand::F32Operand(const Tile& t) {
  if (t.format() == TileFormat::Dense && t.precision() == Precision::FP32) {
    view_ = t.d32().cview();
  } else {
    scratch_.resize(t.rows(), t.cols());
    const la::Matrix<double> full = t.to_dense64();
    la::convert(full.cview(), scratch_.view());
    view_ = scratch_.cview();
  }
}

F16Operand::F16Operand(const Tile& t) {
  if (t.format() == TileFormat::Dense && t.precision() == Precision::FP16) {
    view_ = t.d16().cview();
  } else {
    scratch_.resize(t.rows(), t.cols());
    const la::Matrix<double> full = t.to_dense64();
    la::convert(full.cview(), scratch_.view());
    view_ = scratch_.cview();
  }
}

Bf16Operand::Bf16Operand(const Tile& t) {
  if (t.format() == TileFormat::Dense && t.precision() == Precision::BF16) {
    view_ = t.dbf16().cview();
  } else {
    scratch_.resize(t.rows(), t.cols());
    const la::Matrix<double> full = t.to_dense64();
    la::convert(full.cview(), scratch_.view());
    view_ = scratch_.cview();
  }
}

LrOperand::LrOperand(const Tile& t) {
  GSX_REQUIRE(t.format() == TileFormat::LowRank, "LrOperand: tile is dense");
  if (t.precision() == Precision::FP64) {
    const auto& lr = t.lr64();
    view_ = tlr::LrView{lr.u.cview(), lr.v.cview()};
  } else {
    const auto& lr = t.lr32();
    u_scratch_.resize(lr.u.rows(), lr.u.cols());
    v_scratch_.resize(lr.v.rows(), lr.v.cols());
    la::convert(lr.u.cview(), u_scratch_.view());
    la::convert(lr.v.cview(), v_scratch_.view());
    view_ = tlr::LrView{u_scratch_.cview(), v_scratch_.cview()};
  }
}

int potrf_tile(Tile& akk) {
  GSX_REQUIRE(akk.format() == TileFormat::Dense && akk.precision() == Precision::FP64,
              "potrf_tile: diagonal tiles must be dense FP64");
  account(KernelOp::Potrf, Precision::FP64, obs::potrf_flops(akk.rows()));
  const obs::KernelTimer timer(KernelOp::Potrf, Precision::FP64);
  return la::potrf<double>(la::Uplo::Lower, akk.d64().view());
}

void trsm_tile(const Tile& lkk, Tile& amk) {
  if (amk.format() == TileFormat::LowRank) {
    // A_mk = U V^T: only V is touched (V := L_kk^{-1} V), in FP64.
    if (obs::enabled())
      obs::annotate_task(amk.precision(), static_cast<std::int64_t>(amk.rank()), 0);
    const F64Operand l(lkk);
    if (amk.precision() == Precision::FP64) {
      tlr::lr_trsm_right_lower_trans(l.view(), amk.lr64().v);
    } else {
      auto& lr = amk.lr32();
      la::Matrix<double> v64(lr.v.rows(), lr.v.cols());
      la::convert(lr.v.cview(), v64.view());
      tlr::lr_trsm_right_lower_trans(l.view(), v64);
      la::convert(v64.cview(), lr.v.view());
    }
    return;
  }
  account(KernelOp::Trsm, amk.precision(), obs::trsm_flops(amk.rows(), amk.cols()));
  switch (amk.precision()) {
    case Precision::FP64: {
      const F64Operand l(lkk);
      const obs::KernelTimer timer(KernelOp::Trsm, Precision::FP64);
      la::trsm<double>(la::Side::Right, la::Uplo::Lower, la::Trans::Trans,
                       la::Diag::NonUnit, 1.0, l.view(), amk.d64().view());
      break;
    }
    case Precision::FP32: {
      const F32Operand l(lkk);
      const obs::KernelTimer timer(KernelOp::Trsm, Precision::FP32);
      la::trsm<float>(la::Side::Right, la::Uplo::Lower, la::Trans::Trans, la::Diag::NonUnit,
                      1.0f, l.view(), amk.d32().view());
      break;
    }
    case Precision::FP16: {
      // 16-bit formats have no reliable triangular solve: promote to FP32
      // compute, then round back to the tile's storage precision.
      const F32Operand l(lkk);
      la::Matrix<float> a32(amk.rows(), amk.cols());
      la::convert(amk.d16().cview(), a32.view());
      {
        const obs::KernelTimer timer(KernelOp::Trsm, Precision::FP16);
        la::trsm<float>(la::Side::Right, la::Uplo::Lower, la::Trans::Trans,
                        la::Diag::NonUnit, 1.0f, l.view(), a32.view());
      }
      la::convert(a32.cview(), amk.d16().view());
      break;
    }
    case Precision::BF16: {
      const F32Operand l(lkk);
      la::Matrix<float> a32(amk.rows(), amk.cols());
      la::convert(amk.dbf16().cview(), a32.view());
      {
        const obs::KernelTimer timer(KernelOp::Trsm, Precision::BF16);
        la::trsm<float>(la::Side::Right, la::Uplo::Lower, la::Trans::Trans,
                        la::Diag::NonUnit, 1.0f, l.view(), a32.view());
      }
      la::convert(a32.cview(), amk.dbf16().view());
      break;
    }
  }
}

void syrk_tile(const Tile& amk, Tile& amm) {
  GSX_REQUIRE(amm.format() == TileFormat::Dense && amm.precision() == Precision::FP64,
              "syrk_tile: diagonal tiles must be dense FP64");
  if (amk.format() == TileFormat::LowRank) {
    if (obs::enabled())
      obs::annotate_task(amk.precision(), static_cast<std::int64_t>(amk.rank()), 0);
    const LrOperand a(amk);
    tlr::syrk_lr_dense(-1.0, a.view(), amm.d64().view());
    return;
  }
  account(KernelOp::Syrk, Precision::FP64, obs::syrk_flops(amm.rows(), amk.cols()));
  const F64Operand a(amk);
  const obs::KernelTimer timer(KernelOp::Syrk, Precision::FP64);
  la::syrk<double>(la::Uplo::Lower, la::Trans::NoTrans, -1.0, a.view(), 1.0,
                   amm.d64().view());
}

namespace {

/// GEMM with every tile dense: kernel precision = storage of A_mn.
void gemm_dense(const Tile& amk, const Tile& ank, Tile& amn) {
  account(KernelOp::Gemm, amn.precision(),
          obs::gemm_flops(amn.rows(), amn.cols(), amk.cols()));
  switch (amn.precision()) {
    case Precision::FP64: {
      const F64Operand a(amk), b(ank);
      const obs::KernelTimer timer(KernelOp::Gemm, Precision::FP64);
      la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, a.view(), b.view(), 1.0,
                       amn.d64().view());
      break;
    }
    case Precision::FP32: {
      const F32Operand a(amk), b(ank);
      const obs::KernelTimer timer(KernelOp::Gemm, Precision::FP32);
      la::gemm<float>(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.view(), b.view(), 1.0f,
                      amn.d32().view());
      break;
    }
    case Precision::FP16: {
      // SHGEMM: operands trimmed to FP16, FP32 accumulation, FP16 store.
      const F16Operand a(amk), b(ank);
      const obs::KernelTimer timer(KernelOp::Gemm, Precision::FP16);
      la::hgemm(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.view(), b.view(), 1.0f,
                amn.d16().view());
      break;
    }
    case Precision::BF16: {
      // SBGEMM: operands trimmed to BF16, FP32 accumulation, BF16 store.
      const Bf16Operand a(amk), b(ank);
      const obs::KernelTimer timer(KernelOp::Gemm, Precision::BF16);
      la::bgemm(la::Trans::NoTrans, la::Trans::Trans, -1.0f, a.view(), b.view(), 1.0f,
                amn.dbf16().view());
      break;
    }
  }
}

/// Assemble the low-rank product P = A_mk * A_nk^T for any dense/LR mix.
tlr::LrProduct make_product(const Tile& amk, const Tile& ank, double abs_tol) {
  const bool a_lr = amk.format() == TileFormat::LowRank;
  const bool b_lr = ank.format() == TileFormat::LowRank;
  if (a_lr && b_lr) {
    const LrOperand a(amk), b(ank);
    return tlr::product_lr_lr(a.view(), b.view());
  }
  if (a_lr) {
    const LrOperand a(amk);
    const F64Operand b(ank);
    return tlr::product_lr_dense(a.view(), b.view());
  }
  if (b_lr) {
    const F64Operand a(amk);
    const LrOperand b(ank);
    return tlr::product_dense_lr(a.view(), b.view());
  }
  const F64Operand a(amk), b(ank);
  return tlr::product_dense_dense(a.view(), b.view(), abs_tol);
}

}  // namespace

void gemm_tile(const Tile& amk, const Tile& ank, Tile& amn, double abs_tol,
               tlr::RoundingMethod rounding) {
  const bool a_lr = amk.format() == TileFormat::LowRank;
  const bool b_lr = ank.format() == TileFormat::LowRank;
  if (!a_lr && !b_lr && amn.format() == TileFormat::Dense) {
    gemm_dense(amk, ank, amn);
    return;
  }
  if (obs::enabled()) {
    const std::int64_t rank =
        amn.format() == TileFormat::LowRank ? static_cast<std::int64_t>(amn.rank()) : -1;
    obs::annotate_task(amn.precision(), rank, 0);
  }

  if (amn.format() == TileFormat::Dense) {
    // Dense output with at least one low-rank operand: FP64 compute, then
    // round back to the output tile's storage precision.
    const Precision out_p = amn.precision();
    la::Matrix<double> c64 = amn.to_dense64();
    if (a_lr && b_lr) {
      const LrOperand a(amk), b(ank);
      tlr::gemm_lr_lr_dense(-1.0, a.view(), b.view(), c64.view());
    } else if (a_lr) {
      const LrOperand a(amk);
      const F64Operand b(ank);
      tlr::gemm_lr_dense_dense(-1.0, a.view(), b.view(), c64.view());
    } else {
      const F64Operand a(amk);
      const LrOperand b(ank);
      tlr::gemm_dense_lr_dense(-1.0, a.view(), b.view(), c64.view());
    }
    amn.assign_dense64(std::move(c64));
    amn.convert_dense(out_p);
    return;
  }

  // Low-rank output: form the product in LR form and accumulate with
  // QR-based rounding.
  const tlr::LrProduct p = make_product(amk, ank, abs_tol);
  if (amn.precision() == Precision::FP64) {
    auto& lr = amn.lr64();
    tlr::lr_axpy_rounded(-1.0, p, lr.u, lr.v, abs_tol, rounding);
  } else {
    auto& lr = amn.lr32();
    la::Matrix<double> u64(lr.u.rows(), lr.u.cols());
    la::Matrix<double> v64(lr.v.rows(), lr.v.cols());
    la::convert(lr.u.cview(), u64.view());
    la::convert(lr.v.cview(), v64.view());
    tlr::lr_axpy_rounded(-1.0, p, u64, v64, abs_tol, rounding);
    lr.u.resize(u64.rows(), u64.cols());
    lr.v.resize(v64.rows(), v64.cols());
    la::convert(u64.cview(), lr.u.view());
    la::convert(v64.cview(), lr.v.view());
  }
  if (obs::enabled())  // re-annotate with the post-accumulation rank
    obs::annotate_task(amn.precision(), static_cast<std::int64_t>(amn.rank()), 0);
}

}  // namespace gsx::cholesky
