// The FP64 GEMM over pre-packed A operands (PackedMatrix, gemm_kernel.hpp):
// the packing, the per-ISA instances of gemm_macro that read A's blocks
// instead of packing them, and the checked entry points. A translation unit
// of its own, so that gemm_kernel.cpp's GEMM and SYRK instances compile as
// they did before it existed (see gemm_macro.hpp).
#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/gemm_kernel.hpp"
#include "la/gemm_macro.hpp"
#include "obs/flops.hpp"

namespace gsx::la {

namespace {

// The same macro-kernel and micro-kernel instance as gemm_kernel.cpp's FP64
// GEMM for each ISA, reading A's blocks from the PackedMatrix.
using PackedKernelFn = void (*)(double, const PackedGemmItem*, std::size_t,
                                const GemmBlocking&, std::vector<double>&,
                                std::vector<double>&);

#define GSX_PACKED_GEMM_VARIANT(name, attr, tile)                                       \
  attr void name(double alpha, const PackedGemmItem* items, std::size_t count,          \
                 const GemmBlocking& blk, std::vector<double>& apack,                   \
                 std::vector<double>& bpack) {                                          \
    gemm_macro<Part::All, ASource::Prepacked, double, double, tile.mr, tile.nr>(         \
        Trans::NoTrans, Trans::NoTrans, alpha, items, count, blk, apack, bpack);         \
  }

GSX_PACKED_GEMM_VARIANT(gemm_f64_prepacked_portable, , kF64Portable)
#if GSX_X86_DISPATCH
GSX_PACKED_GEMM_VARIANT(gemm_f64_prepacked_avx2, GSX_TARGET_AVX2, kF64Avx2)
GSX_PACKED_GEMM_VARIANT(gemm_f64_prepacked_avx512, GSX_TARGET_AVX512, kF64Avx512)
#endif

#undef GSX_PACKED_GEMM_VARIANT

PackedKernelFn packed_kernel_for(Isa isa) noexcept {
  static constexpr PackedKernelFn fn[] = GSX_BY_ISA(
      gemm_f64_prepacked_portable, gemm_f64_prepacked_avx2, gemm_f64_prepacked_avx512);
  return fn[static_cast<int>(isa)];
}

#undef GSX_BY_ISA

/// Runs `f.template operator()<MR>()` at the FP64 panel height of `isa`.
template <typename F>
void with_f64_mr(Isa isa, F&& f) {
  switch (isa) {
    case Isa::Avx512: return f.template operator()<kF64Avx512.mr>();
    case Isa::Avx2: return f.template operator()<kF64Avx2.mr>();
    case Isa::Portable: break;
  }
  f.template operator()<kF64Portable.mr>();
}

/// Checks a pre-packed batch and applies beta; false when nothing is left
/// to accumulate (la::gemm_batch's early exits).
bool begin_prepacked(double alpha, const PackedGemmItem* items, std::size_t count,
                     double beta) {
  const std::size_t m = items[0].c.rows();
  const std::size_t n = items[0].c.cols();
  const std::size_t k = items[0].a->cols();
  for (std::size_t i = 0; i < count; ++i) {
    const PackedGemmItem& it = items[i];
    GSX_REQUIRE(it.a->isa() == active_isa(),
                "gemm: A operand was packed for another ISA than the active one");
    GSX_REQUIRE(it.a->rows() == m && it.a->cols() == k, "gemm: packed A shape mismatch");
    GSX_REQUIRE(it.b.rows() == k && it.b.cols() == n, "gemm: B shape mismatch");
    GSX_REQUIRE(it.c.rows() == m && it.c.cols() == n, "gemm: C shape mismatch");
  }
  for (std::size_t i = 0; i < count; ++i) detail::scale_matrix(beta, items[i].c);
  return alpha != 0.0 && m != 0 && n != 0 && k != 0;
}

/// C += alpha * A * B over checked items, on the micro-kernel at every
/// shape: the packing was paid at load, and each column of C then takes the
/// same operations whatever the width of B.
void run_prepacked(double alpha, const PackedGemmItem* items, std::size_t count) {
  static thread_local std::vector<double> apack;  // unused: A is packed
  static thread_local std::vector<double> bpack;
  packed_kernel_for(active_isa())(alpha, items, count, kBlocking<double>, apack, bpack);
}

}  // namespace

template <typename TS>
PackedMatrix::PackedMatrix(Span2D<const TS> a, Isa isa)
    : rows_(a.rows()), cols_(a.cols()), isa_(isa) {
  with_f64_mr(isa, [&]<int MR>() {
    const std::size_t padded = round_up(rows_, MR);
    size_ = padded * cols_;
    panels_ = std::make_unique_for_overwrite<double[]>(size_);
    for (std::size_t pc = 0; pc < cols_; pc += kBlocking<double>.kc)
      pack_a<TS, double, MR>(Trans::NoTrans, a, 0, pc, rows_,
                             std::min(kBlocking<double>.kc, cols_ - pc),
                             panels_.get() + padded * pc);
  });
}

template PackedMatrix::PackedMatrix(Span2D<const double>, Isa);
template PackedMatrix::PackedMatrix(Span2D<const float>, Isa);
template PackedMatrix::PackedMatrix(Span2D<const half>, Isa);
template PackedMatrix::PackedMatrix(Span2D<const bfloat16>, Isa);

void gemm(double alpha, const PackedMatrix& a, Span2D<const double> b, double beta,
          Span2D<double> c) {
  const PackedGemmItem item{&a, b, c};
  if (begin_prepacked(alpha, &item, 1, beta)) run_prepacked(alpha, &item, 1);
}

void gemm_batch(double alpha, const PackedGemmItem* items, std::size_t count, double beta) {
  if (count == 0 || !begin_prepacked(alpha, items, count, beta)) return;
  obs::record_batch(obs::KernelOp::Gemm, Precision::FP64, count);
  run_prepacked(alpha, items, count);
}

}  // namespace gsx::la
