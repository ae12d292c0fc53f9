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
//
// An A operand that many products share (a served factor's off-diagonal
// tiles, re-used by every kriging request) can be packed once instead:
// PackedMatrix holds it, widened to FP64, in the FP64 kernel's own A-panel
// layout, and the la::gemm / la::gemm_batch overloads over it run the same
// micro-kernel instances without re-packing, at every shape (the size rule
// detail::use_packed does not apply to them), so each column of C takes the
// same operations whatever the width of B.
#pragma once

#include <cstddef>
#include <memory>

#include "common/bfloat16.hpp"
#include "common/half.hpp"
#include "common/isa.hpp"
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

/// op(A) = A (m x k) packed once, as FP64, for products A * B with changing
/// B. The layout is the packed GEMM's own: each KC-deep slab of A as the
/// ISA's MR-row micro-panels, its MC x KC blocks in the macro-kernel's
/// visiting order, ragged rows zero-padded. FP32, FP16 and BF16 sources are
/// widened (exactly) while packing, in the one pass that writes each
/// element. The operand records the ISA it was packed for; the GEMM
/// overloads below refuse it under any other.
class PackedMatrix {
 public:
  PackedMatrix() = default;
  /// Packs `a` (TS = double, float, half or bfloat16) for `isa`.
  template <typename TS>
  explicit PackedMatrix(Span2D<const TS> a, Isa isa = active_isa());

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] Isa isa() const noexcept { return isa_; }
  /// Bytes of packed panels held (zero padding included).
  [[nodiscard]] std::size_t bytes() const noexcept { return size_ * sizeof(double); }
  /// The packed panels; their layout is private to gemm_kernel.cpp.
  [[nodiscard]] const double* panels() const noexcept { return panels_.get(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Isa isa_ = Isa::Portable;
  std::size_t size_ = 0;
  std::unique_ptr<double[]> panels_;
};

/// One op of a batch over pre-packed A operands: C += alpha * A * B.
struct PackedGemmItem {
  const PackedMatrix* a;
  Span2D<const double> b;
  Span2D<double> c;
};

/// C = alpha * A * B + beta * C with A pre-packed, on the packed
/// micro-kernel at every shape: every element equals
/// la::gemm(NoTrans, NoTrans, alpha, A, B, beta, C) on the unpacked A
/// widened to FP64, bit for bit, wherever that takes the packed path
/// (detail::use_packed), and each column of C equals the same column
/// computed alone. Throws if `a` was packed for an ISA other than the
/// active one.
void gemm(double alpha, const PackedMatrix& a, Span2D<const double> b, double beta,
          Span2D<double> c);

/// Batched form: every item has the same (m, n, k); consecutive items that
/// share one B re-use its packed panel, as in la::gemm_batch. Results equal
/// looping gemm above over the items, bit for bit.
void gemm_batch(double alpha, const PackedGemmItem* items, std::size_t count, double beta);

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
