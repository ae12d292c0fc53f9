#include "cholesky/tile_batch.hpp"

#include <deque>

#include "la/blas.hpp"
#include "la/half_blas.hpp"
#include "obs/flops.hpp"
#include "obs/trace.hpp"

namespace gsx::cholesky {

using obs::KernelOp;
using tile::SymTileMatrix;
using tile::Tile;
using tile::TileFormat;

namespace {

/// One precision-uniform slice of a panel column's trailing updates. All
/// outputs share (rows, cols); a ragged last tile row lands in its own group
/// (batched kernels require uniform shapes).
struct Group {
  Precision p = Precision::FP64;
  std::size_t rows = 0;
  std::vector<std::size_t> ms;
};

// The four per-precision group runners mirror gemm_tile's dense switch: same
// operand converters, same kernel, same (NoTrans, Trans, -1, +1) update.
// Operands live in a deque so their views stay valid for the whole call.

void run_group_f64(SymTileMatrix& a, std::size_t k, std::size_t n, const Group& g) {
  const F64Operand b(a.at(n, k));
  std::deque<F64Operand> ops;
  std::vector<la::GemmBatchItem<double>> items;
  items.reserve(g.ms.size());
  for (const std::size_t m : g.ms) {
    ops.emplace_back(a.at(m, k));
    items.push_back({ops.back().view(), b.view(), a.at(m, n).d64().view()});
  }
  const obs::KernelTimer timer(KernelOp::Gemm, Precision::FP64);
  la::gemm_batch<double>(la::Trans::NoTrans, la::Trans::Trans, -1.0, items.data(),
                         items.size(), 1.0);
}

void run_group_f32(SymTileMatrix& a, std::size_t k, std::size_t n, const Group& g) {
  const F32Operand b(a.at(n, k));
  std::deque<F32Operand> ops;
  std::vector<la::GemmBatchItem<float>> items;
  items.reserve(g.ms.size());
  for (const std::size_t m : g.ms) {
    ops.emplace_back(a.at(m, k));
    items.push_back({ops.back().view(), b.view(), a.at(m, n).d32().view()});
  }
  const obs::KernelTimer timer(KernelOp::Gemm, Precision::FP32);
  la::gemm_batch<float>(la::Trans::NoTrans, la::Trans::Trans, -1.0f, items.data(),
                        items.size(), 1.0f);
}

void run_group_f16(SymTileMatrix& a, std::size_t k, std::size_t n, const Group& g) {
  const F16Operand b(a.at(n, k));
  std::deque<F16Operand> ops;
  std::vector<la::Gemm16BatchItem<half>> items;
  items.reserve(g.ms.size());
  for (const std::size_t m : g.ms) {
    ops.emplace_back(a.at(m, k));
    items.push_back({ops.back().view(), b.view(), a.at(m, n).d16().view()});
  }
  const obs::KernelTimer timer(KernelOp::Gemm, Precision::FP16);
  la::hgemm_batch(la::Trans::NoTrans, la::Trans::Trans, -1.0f, items.data(),
                  items.size(), 1.0f);
}

void run_group_bf16(SymTileMatrix& a, std::size_t k, std::size_t n, const Group& g) {
  const Bf16Operand b(a.at(n, k));
  std::deque<Bf16Operand> ops;
  std::vector<la::Gemm16BatchItem<bfloat16>> items;
  items.reserve(g.ms.size());
  for (const std::size_t m : g.ms) {
    ops.emplace_back(a.at(m, k));
    items.push_back({ops.back().view(), b.view(), a.at(m, n).dbf16().view()});
  }
  const obs::KernelTimer timer(KernelOp::Gemm, Precision::BF16);
  la::bgemm_batch(la::Trans::NoTrans, la::Trans::Trans, -1.0f, items.data(),
                  items.size(), 1.0f);
}

}  // namespace

void gemm_tile_batch(SymTileMatrix& a, std::size_t k, std::size_t n,
                     const std::vector<std::size_t>& ms, double abs_tol,
                     tlr::RoundingMethod rounding) {
  const Tile& ank = a.at(n, k);
  const bool ank_lr = ank.format() == TileFormat::LowRank;
  std::vector<Group> groups;
  for (const std::size_t m : ms) {
    const Tile& amk = a.at(m, k);
    Tile& amn = a.at(m, n);
    // Updates involving a low-rank tile keep the per-op LR algebra; each
    // output tile is touched exactly once per k, so interleaving per-op and
    // batched items cannot change any result.
    if (ank_lr || amk.format() == TileFormat::LowRank ||
        amn.format() == TileFormat::LowRank) {
      gemm_tile(amk, ank, amn, abs_tol, rounding);
      continue;
    }
    Group* g = nullptr;
    for (Group& cand : groups)
      if (cand.p == amn.precision() && cand.rows == amn.rows()) {
        g = &cand;
        break;
      }
    if (g == nullptr) {
      groups.push_back({amn.precision(), amn.rows(), {}});
      g = &groups.back();
    }
    g->ms.push_back(m);
  }

  for (const Group& g : groups) {
    if (obs::enabled()) {
      // Ledger parity with the per-op path: one gemm_flops entry per tile
      // update (the batch histogram, recorded inside the kernel, is what
      // tracks actual launch granularity).
      std::uint64_t flops = 0;
      for (const std::size_t m : g.ms) {
        const std::uint64_t f =
            obs::gemm_flops(a.at(m, n).rows(), a.at(m, n).cols(), a.at(m, k).cols());
        obs::add_flops(KernelOp::Gemm, g.p, f);
        flops += f;
      }
      obs::annotate_task(g.p, -1, flops);
    }
    switch (g.p) {
      case Precision::FP64:
        run_group_f64(a, k, n, g);
        break;
      case Precision::FP32:
        run_group_f32(a, k, n, g);
        break;
      case Precision::FP16:
        run_group_f16(a, k, n, g);
        break;
      case Precision::BF16:
        run_group_bf16(a, k, n, g);
        break;
    }
  }
}

}  // namespace gsx::cholesky
