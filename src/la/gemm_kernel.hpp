// Packed, cache-blocked, register-tiled GEMM kernels (BLIS-style).
//
// The reference loops in la::ref are limited by C-matrix traffic: every
// rank-1 axpy re-reads and re-writes a full column of C. The packed path
// instead copies one MC x KC block of op(A) and one KC x NC panel of op(B)
// into contiguous, micro-tile-ordered buffers, then drives an MR x NR
// register-tiled micro-kernel over them: C traffic drops to one
// read-modify-write per KC-deep block, and the inner loop is a pure
// multiply-add over register accumulators that the compiler vectorizes for
// the target ISA.
//
// The 16-bit entry points widen FP16/BF16 operands to FP32 *during packing*
// (one pass, no full-matrix scratch copies) and accumulate in FP32 — the
// SHGEMM semantics the paper borrowed from BLIS for Fugaku's missing kernel.
//
// SYRK is the same sweep restricted to one triangle of C: a predicate on C's
// coordinates skips the MC blocks and micro-tiles outside it and masks the
// stores of the micro-tiles across its diagonal. TRSM (la/blas.hpp) reaches
// this path through its coupling GEMMs.
//
// Like the fixed per-machine BLAS the paper links, each (precision, ISA)
// pair has exactly one compiled kernel with one compile-time blocking (table
// in docs/tuning.md). The ISA is picked once per process from the CPU
// (common/isa.hpp); GSX_GEMM_ISA can only cap it, and is the one runtime
// control. The batch entry points run many same-shape ops through one
// blocked sweep, re-using the packed op(B) panel across ops that share B.
#pragma once

#include <cstddef>

#include "common/bfloat16.hpp"
#include "common/half.hpp"
#include "common/precision.hpp"
#include "common/span2d.hpp"
#include "la/blas_types.hpp"

namespace gsx::la {

/// Name of the micro-kernel variant runtime dispatch selected for this
/// process: "avx512", "avx2" or "portable" (capped by GSX_GEMM_ISA).
[[nodiscard]] const char* gemm_kernel_isa() noexcept;

/// What runtime dispatch selected, for achieved-vs-peak reporting: the ISA
/// name, its vector width, and the assumed FMA issue width (ports x 2 flops
/// per lane per cycle gives the theoretical per-core peak).
struct GemmDispatchInfo {
  const char* isa = "portable";
  int vector_bits = 128;
  int fma_ports = 2;
};
[[nodiscard]] GemmDispatchInfo gemm_dispatch_info() noexcept;

/// Theoretical per-core peak for precision `p` on the dispatched ISA at
/// `ghz` (16-bit storage computes in FP32 and uses FP32 lanes):
/// lanes * 2 (fused multiply-add) * fma_ports * ghz, in GFlop/s.
[[nodiscard]] double gemm_peak_gflops(Precision p, double ghz) noexcept;

/// Sustained-clock estimate in GHz for gemm_peak_gflops: /proc/cpuinfo when
/// available, otherwise a timed dependent-op chain. An estimate (~±10%);
/// peaks derived from it are labeled as such in reports.
[[nodiscard]] double measure_clock_ghz();

/// One op of a same-shape GEMM batch: C += alpha * op(A) * op(B) with the
/// operands stored as TS and accumulation carried in TAcc (equal for
/// FP64/FP32; TAcc = float for 16-bit storage types).
template <typename TS, typename TAcc = TS>
struct GemmBatchItem {
  Span2D<const TS> a;
  Span2D<const TS> b;
  Span2D<TAcc> c;
};

namespace detail {

/// C += alpha * op(A) * op(B) through the packed micro-kernel path.
/// beta must already have been applied to C by the caller. Shapes are not
/// re-validated here; la::gemm is the checked entry point.
void gemm_packed(Trans ta, Trans tb, double alpha, Span2D<const double> a,
                 Span2D<const double> b, Span2D<double> c);
void gemm_packed(Trans ta, Trans tb, float alpha, Span2D<const float> a,
                 Span2D<const float> b, Span2D<float> c);

/// Widening variants: 16-bit storage operands are converted to FP32 as they
/// are packed; all arithmetic and accumulation is FP32.
void gemm_packed(Trans ta, Trans tb, float alpha, Span2D<const half> a,
                 Span2D<const half> b, Span2D<float> c);
void gemm_packed(Trans ta, Trans tb, float alpha, Span2D<const bfloat16> a,
                 Span2D<const bfloat16> b, Span2D<float> c);

/// C's `uplo` triangle += alpha * op(A) * op(A)^T (op(A) is n x k) through
/// the packed path: the sweep of gemm_packed(trans, flip(trans), alpha, a, a,
/// c) with the micro-tiles outside the triangle skipped and those across
/// its diagonal storing only their in-triangle elements, so every stored
/// element equals gemm_packed's bit for bit. beta must already be applied.
void syrk_packed(Uplo uplo, Trans trans, double alpha, Span2D<const double> a,
                 Span2D<double> c);
void syrk_packed(Uplo uplo, Trans trans, float alpha, Span2D<const float> a,
                 Span2D<float> c);

/// Batched form: every item has the same (m, n, k) and transposes, and beta
/// is already applied. One blocked sweep over all items; the packed op(B)
/// panel is re-used (not re-packed) across consecutive items that share the
/// same B operand, which is what amortizes packing for the TLR trailing
/// updates (shared panel tile) and kriging micro-batches (shared RHS block).
/// Results are bit-identical to looping gemm_packed over the items.
void gemm_batch_packed(Trans ta, Trans tb, double alpha,
                       const GemmBatchItem<double>* items, std::size_t count);
void gemm_batch_packed(Trans ta, Trans tb, float alpha,
                       const GemmBatchItem<float>* items, std::size_t count);
void gemm_batch_packed(Trans ta, Trans tb, float alpha,
                       const GemmBatchItem<half, float>* items, std::size_t count);
void gemm_batch_packed(Trans ta, Trans tb, float alpha,
                       const GemmBatchItem<bfloat16, float>* items, std::size_t count);

/// Below this many multiply-adds the packing overhead outweighs the
/// micro-kernel win and la::gemm stays on the reference loops.
inline constexpr std::size_t kPackedGemmMinMnk = 16384;

[[nodiscard]] inline bool use_packed(std::size_t m, std::size_t n, std::size_t k) noexcept {
  return m * n * k >= kPackedGemmMinMnk;
}

}  // namespace detail

}  // namespace gsx::la
