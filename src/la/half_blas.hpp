// FP16-storage BLAS kernels with FP32 accumulation ("SHGEMM").
//
// Fugaku's SSL lacked exactly this kernel (the paper borrowed a BLIS
// implementation); here operands are stored in binary16 and panels are
// widened to FP32 on the fly, with all arithmetic and accumulation in FP32.
#pragma once

#include <type_traits>

#include "common/bfloat16.hpp"
#include "common/half.hpp"
#include "common/span2d.hpp"
#include "la/blas.hpp"

namespace gsx::la {

/// C(fp32) = alpha * op(A_h) * op(B_h) + beta * C. FP32 accumulation.
void shgemm(Trans ta, Trans tb, float alpha, Span2D<const half> a, Span2D<const half> b,
            float beta, Span2D<float> c);

/// C(fp16) = alpha * op(A_h) * op(B_h) + beta * C_h; accumulates in FP32 and
/// rounds the result to binary16 on store.
void hgemm(Trans ta, Trans tb, float alpha, Span2D<const half> a, Span2D<const half> b,
           float beta, Span2D<half> c);

/// C(fp32) = alpha * op(A_bf) * op(B_bf) + beta * C; BF16 storage with FP32
/// accumulation — the "SBGEMM" semantics of BF16 matrix engines.
void sbgemm(Trans ta, Trans tb, float alpha, Span2D<const bfloat16> a,
            Span2D<const bfloat16> b, float beta, Span2D<float> c);

/// C(bf16) = alpha * op(A_bf) * op(B_bf) + beta * C_bf; FP32 accumulation,
/// BF16 store.
void bgemm(Trans ta, Trans tb, float alpha, Span2D<const bfloat16> a,
           Span2D<const bfloat16> b, float beta, Span2D<bfloat16> c);

// ---------------------------------------------------------------------------
// Batched 16-bit entry points. Same batching contract as la::gemm_batch
// (uniform shapes, one blocked sweep, packed op(B) re-used across items that
// share B, obs batch histograms); results are bit-identical to looping the
// per-op calls for all non-NaN data. These are the hot shape of the adaptive
// Cholesky: most TLR trailing updates land on FP16/BF16 tiles.

/// Batched SHGEMM: items[i].c(fp32) = alpha * op(a) * op(b) + beta * c.
void shgemm_batch(Trans ta, Trans tb, float alpha,
                  const GemmBatchItem<half, float>* items, std::size_t count,
                  float beta);

/// Batched HGEMM: FP32 accumulation, FP16 store. C is stored in FP16 and
/// round-trips through one shared FP32 scratch inside the call. Unlike
/// looped hgemm, the C widen/narrow passes run vectorized (F16C where
/// available) over one scratch allocation for the whole batch — this
/// conversion glue is most of a small per-op hgemm's runtime.
void hgemm_batch(Trans ta, Trans tb, float alpha, const GemmBatchItem<half>* items,
                 std::size_t count, float beta);

/// Batched BGEMM: FP32 accumulation, BF16 store.
void bgemm_batch(Trans ta, Trans tb, float alpha, const GemmBatchItem<bfloat16>* items,
                 std::size_t count, float beta);

// ---------------------------------------------------------------------------
// The GEMM of each storage scalar, for code written once over the scalar
// (common/precision.hpp's dispatch): la::gemm / la::gemm_batch for FP64 and
// FP32, hgemm / bgemm and their batches for FP16 and BF16.

/// Scalar a kernel on storage scalar T computes in: T for FP64 and FP32,
/// FP32 for the 16-bit formats.
template <typename T>
using accum_t = std::conditional_t<std::is_same_v<T, double>, double, float>;

/// C = alpha * op(A) * op(B) + beta * C with every operand stored at T.
template <typename T>
void storage_gemm(Trans ta, Trans tb, accum_t<T> alpha, Span2D<const T> a,
                  Span2D<const T> b, accum_t<T> beta, Span2D<T> c) {
  if constexpr (std::is_same_v<T, half>)
    hgemm(ta, tb, alpha, a, b, beta, c);
  else if constexpr (std::is_same_v<T, bfloat16>)
    bgemm(ta, tb, alpha, a, b, beta, c);
  else
    gemm<T>(ta, tb, alpha, a, b, beta, c);
}

/// storage_gemm over a batch of same-shape items (bit-identical to looping
/// it for all non-NaN data).
template <typename T>
void storage_gemm_batch(Trans ta, Trans tb, accum_t<T> alpha, const GemmBatchItem<T>* items,
                        std::size_t count, accum_t<T> beta) {
  if constexpr (std::is_same_v<T, half>)
    hgemm_batch(ta, tb, alpha, items, count, beta);
  else if constexpr (std::is_same_v<T, bfloat16>)
    bgemm_batch(ta, tb, alpha, items, count, beta);
  else
    gemm_batch<T>(ta, tb, alpha, items, count, beta);
}

}  // namespace gsx::la
