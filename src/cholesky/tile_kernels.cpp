#include "cholesky/tile_kernels.hpp"

#include <type_traits>
#include <vector>

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

/// Runs `f` on `m` at scalar C: in place when m already is C, else on a
/// converted copy that is rounded back into `m` (taking the copy's shape)
/// afterwards.
template <typename C, typename T, typename F>
void at_scalar(la::Matrix<T>& m, F&& f) {
  if constexpr (std::is_same_v<C, T>) {
    f(m);
  } else {
    la::Matrix<C> work(m.rows(), m.cols());
    la::convert(m.cview(), work.view());
    f(work);
    if (m.rows() != work.rows() || m.cols() != work.cols()) m.resize(work.rows(), work.cols());
    la::convert(work.cview(), m.view());
  }
}

/// `m` viewed at FP64: zero-copy for double, else widened into `scratch`.
template <typename T>
Span2D<const double> fp64_view(const la::Matrix<T>& m, la::Matrix<double>& scratch) {
  if constexpr (std::is_same_v<T, double>) {
    return m.cview();
  } else {
    scratch.resize(m.rows(), m.cols());
    la::convert(m.cview(), scratch.view());
    return scratch.cview();
  }
}

}  // namespace

LrOperand::LrOperand(const Tile& t) {
  GSX_REQUIRE(t.format() == TileFormat::LowRank, "LrOperand: tile is dense");
  tile::dispatch_lowrank(t.precision(), [&]<typename T>() {
    const tile::LowRankStorage<T>& lr = t.factors<T>();
    view_ = tlr::LrView{fp64_view(lr.u, u_scratch_), fp64_view(lr.v, v_scratch_)};
  });
}

int potrf_tile(Tile& akk) {
  GSX_REQUIRE(akk.format() == TileFormat::Dense && akk.precision() == Precision::FP64,
              "potrf_tile: diagonal tiles must be dense FP64");
  account(KernelOp::Potrf, Precision::FP64, obs::potrf_flops(akk.rows()));
  const obs::KernelTimer timer(KernelOp::Potrf, Precision::FP64);
  return la::potrf(akk.matrix<double>().view());
}

void trsm_tile(const Tile& lkk, Tile& amk) {
  if (amk.format() == TileFormat::LowRank) {
    // A_mk = U V^T: only V is touched (V := L_kk^{-1} V), in FP64.
    if (obs::enabled())
      obs::annotate_task(amk.precision(), static_cast<std::int64_t>(amk.rank()), 0);
    const DenseOperand<double> l(lkk);
    tile::dispatch_lowrank(amk.precision(), [&]<typename T>() {
      at_scalar<double>(amk.factors<T>().v, [&](la::Matrix<double>& v) {
        tlr::lr_trsm_right_lower_trans(l.view(), v);
      });
    });
    return;
  }
  account(KernelOp::Trsm, amk.precision(), obs::trsm_flops(amk.rows(), amk.cols()));
  dispatch(amk.precision(), [&]<typename T>() {
    // 16-bit formats have no reliable triangular solve: they compute in FP32
    // and round back to the tile's storage precision.
    using C = la::accum_t<T>;
    const DenseOperand<C> l(lkk);
    at_scalar<C>(amk.matrix<T>(), [&](la::Matrix<C>& a) {
      const obs::KernelTimer timer(KernelOp::Trsm, precision_of<T>);
      la::trsm_right_trans<C>(l.view(), a.view());
    });
  });
}

void syrk_tile(const Tile& amk, Tile& amm) {
  GSX_REQUIRE(amm.format() == TileFormat::Dense && amm.precision() == Precision::FP64,
              "syrk_tile: diagonal tiles must be dense FP64");
  if (amk.format() == TileFormat::LowRank) {
    if (obs::enabled())
      obs::annotate_task(amk.precision(), static_cast<std::int64_t>(amk.rank()), 0);
    const LrOperand a(amk);
    tlr::syrk_lr_dense(-1.0, a.view(), amm.matrix<double>().view());
    return;
  }
  account(KernelOp::Syrk, Precision::FP64, obs::syrk_flops(amm.rows(), amk.cols()));
  const DenseOperand<double> a(amk);
  const obs::KernelTimer timer(KernelOp::Syrk, Precision::FP64);
  la::syrk<double>(la::Uplo::Lower, la::Trans::NoTrans, -1.0, a.view(), 1.0,
                   amm.matrix<double>().view());
}

void gemm_dense_batch(const Tile& b, std::span<const DenseUpdate> items) {
  if (items.empty()) return;
  const Precision p = items.front().c->precision();
  if (obs::enabled()) {
    // One gemm_flops ledger entry per tile update, as for the other tile
    // kernels (the batch histogram, recorded inside the kernel, is what
    // tracks launch granularity).
    std::uint64_t flops = 0;
    for (const DenseUpdate& u : items) {
      const std::uint64_t f = obs::gemm_flops(u.c->rows(), u.c->cols(), u.a->cols());
      obs::add_flops(KernelOp::Gemm, p, f);
      flops += f;
    }
    obs::annotate_task(p, -1, flops);
  }
  dispatch(p, [&]<typename T>() {
    // FP16/BF16 are SHGEMM/SBGEMM: operands trimmed to 16 bits, FP32
    // accumulation, 16-bit store.
    const DenseOperand<T> bop(b);
    std::vector<DenseOperand<T>> ops;  // reserved: views stay put
    std::vector<la::GemmBatchItem<T>> batch;
    ops.reserve(items.size());
    batch.reserve(items.size());
    for (const DenseUpdate& u : items) {
      ops.emplace_back(*u.a);
      batch.push_back({ops.back().view(), bop.view(), u.c->matrix<T>().view()});
    }
    const obs::KernelTimer timer(KernelOp::Gemm, p);
    la::storage_gemm_batch<T>(la::Trans::NoTrans, la::Trans::Trans, la::accum_t<T>(-1),
                              batch.data(), batch.size(), la::accum_t<T>(1));
  });
}

namespace {

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
    const DenseOperand<double> b(ank);
    return tlr::product_lr_dense(a.view(), b.view());
  }
  if (b_lr) {
    const DenseOperand<double> a(amk);
    const LrOperand b(ank);
    return tlr::product_dense_lr(a.view(), b.view());
  }
  const DenseOperand<double> a(amk), b(ank);
  return tlr::product_dense_dense(a.view(), b.view(), abs_tol);
}

}  // namespace

void gemm_tile(const Tile& amk, const Tile& ank, Tile& amn, double abs_tol) {
  const bool a_lr = amk.format() == TileFormat::LowRank;
  const bool b_lr = ank.format() == TileFormat::LowRank;
  if (!a_lr && !b_lr && amn.format() == TileFormat::Dense) {
    const DenseUpdate u{&amk, &amn};
    gemm_dense_batch(ank, {&u, 1});
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
    dispatch(amn.precision(), [&]<typename T>() {
      at_scalar<double>(amn.matrix<T>(), [&](la::Matrix<double>& c) {
        if (a_lr && b_lr) {
          const LrOperand a(amk), b(ank);
          tlr::gemm_lr_lr_dense(-1.0, a.view(), b.view(), c.view());
        } else if (a_lr) {
          const LrOperand a(amk);
          const DenseOperand<double> b(ank);
          tlr::gemm_lr_dense_dense(-1.0, a.view(), b.view(), c.view());
        } else {
          const DenseOperand<double> a(amk);
          const LrOperand b(ank);
          tlr::gemm_dense_lr_dense(-1.0, a.view(), b.view(), c.view());
        }
      });
    });
    return;
  }

  // Low-rank output: form the product in LR form and accumulate with
  // QR-based rounding, at FP64.
  const tlr::LrProduct p = make_product(amk, ank, abs_tol);
  tile::dispatch_lowrank(amn.precision(), [&]<typename T>() {
    tile::LowRankStorage<T>& lr = amn.factors<T>();
    at_scalar<double>(lr.u, [&](la::Matrix<double>& u) {
      at_scalar<double>(lr.v, [&](la::Matrix<double>& v) {
        tlr::lr_axpy_rounded(-1.0, p, u, v, abs_tol);
      });
    });
  });
  if (obs::enabled())  // re-annotate with the post-accumulation rank
    obs::annotate_task(amn.precision(), static_cast<std::int64_t>(amn.rank()), 0);
}

}  // namespace gsx::cholesky
