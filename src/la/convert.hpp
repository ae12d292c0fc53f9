// Precision conversion of column-major blocks.
//
// The runtime inserts these conversions "on demand" when a kernel's lead
// operand precision differs from an input's storage precision (Algorithm 1:
// the '*' operands are converted in flight to match the '+' lead operand).
#pragma once

#include <cstddef>

#include "common/bfloat16.hpp"
#include "common/half.hpp"
#include "common/span2d.hpp"

namespace gsx::la {

void convert(Span2D<const double> src, Span2D<float> dst);
void convert(Span2D<const double> src, Span2D<half> dst);
void convert(Span2D<const float> src, Span2D<double> dst);
void convert(Span2D<const float> src, Span2D<half> dst);
void convert(Span2D<const half> src, Span2D<double> dst);
void convert(Span2D<const half> src, Span2D<float> dst);
void convert(Span2D<const double> src, Span2D<bfloat16> dst);
void convert(Span2D<const float> src, Span2D<bfloat16> dst);
void convert(Span2D<const bfloat16> src, Span2D<double> dst);
void convert(Span2D<const bfloat16> src, Span2D<float> dst);
void convert(Span2D<const half> src, Span2D<bfloat16> dst);
void convert(Span2D<const bfloat16> src, Span2D<half> dst);

namespace detail {

/// Vectorized C-scratch conversions for the batched 16-bit GEMM path
/// (half_blas.hpp). FP16 uses hardware F16C when the CPU has it; both
/// directions are the same round-to-nearest-even narrowing as the software
/// path, so results are bit-identical to convert() for every non-NaN value
/// (NaNs stay quiet NaNs but hardware keeps payload bits the software path
/// collapses). BF16 is branchless integer code the compiler vectorizes.
/// No obs conversion accounting — the batch entry points record their
/// conversion traffic once per batch.
void widen_fast(Span2D<const half> src, Span2D<float> dst);
void narrow_fast(Span2D<const float> src, Span2D<half> dst);
void widen_fast(Span2D<const bfloat16> src, Span2D<float> dst);
void narrow_fast(Span2D<const float> src, Span2D<bfloat16> dst);

}  // namespace detail

}  // namespace gsx::la
