#include "la/gemm_kernel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/isa.hpp"
#include "la/gemm_macro.hpp"

namespace gsx::la {

namespace {

// ---------------------------------------------------------------------------
// ISA variants. Each (precision, ISA) pair has exactly one register-tile
// shape, compiled as a concrete function per target (the portable tile must
// fit 16 xmm registers; AVX2 has 16 ymm, AVX-512 32 zmm), so the whole
// macro-kernel (packing included) is vectorized for that target.

template <typename TS, typename T>
using BatchKernelFn = void (*)(Trans, Trans, T, const GemmBatchItem<TS, T>*, std::size_t,
                               Part, const GemmBlocking&, std::vector<T>&,
                               std::vector<T>&);

// The part is a template argument of gemm_macro, so the GEMM instance
// compiles exactly as a sweep with no predicate; only FP64/FP32 storage
// has a SYRK.
#define GSX_GEMM_VARIANT(name, attr, TS, T, MR, NR)                                     \
  attr void name(Trans ta, Trans tb, T alpha, const GemmBatchItem<TS, T>* items,        \
                 std::size_t count, Part part, const GemmBlocking& blk,                 \
                 std::vector<T>& apack, std::vector<T>& bpack) {                        \
    constexpr ASource view = ASource::View;                                             \
    if constexpr (std::is_same_v<TS, T>) {                                              \
      if (part == Part::Lower)                                                          \
        return gemm_macro<Part::Lower, view, TS, T, MR, NR>(ta, tb, alpha, items, count, \
                                                            blk, apack, bpack);         \
      if (part == Part::Upper)                                                          \
        return gemm_macro<Part::Upper, view, TS, T, MR, NR>(ta, tb, alpha, items, count, \
                                                            blk, apack, bpack);         \
    }                                                                                   \
    gemm_macro<Part::All, view, TS, T, MR, NR>(ta, tb, alpha, items, count, blk, apack, \
                                               bpack);                                  \
  }

// Shapes were chosen empirically per ISA (GCC's SLP vectorizer is
// shape-sensitive; see docs/tuning.md before changing one). Each keeps every
// accumulator column a whole number of vectors and fully unrolls into
// independent FMA chains. 16-bit storage computes in FP32 and shares the
// FP32 shape; the FP64 shapes are kF64Tile (gemm_macro.hpp), which
// PackedMatrix's panels follow too.

GSX_GEMM_VARIANT(gemm_f64_32x8_portable, , double, double, kF64Portable.mr, kF64Portable.nr)
GSX_GEMM_VARIANT(gemm_f32_32x4_portable, , float, float, 32, 4)
GSX_GEMM_VARIANT(gemm_h32_32x4_portable, , half, float, 32, 4)
GSX_GEMM_VARIANT(gemm_b32_32x4_portable, , bfloat16, float, 32, 4)

#if GSX_X86_DISPATCH
GSX_GEMM_VARIANT(gemm_f64_8x4_avx2, GSX_TARGET_AVX2, double, double, kF64Avx2.mr,
                 kF64Avx2.nr)
GSX_GEMM_VARIANT(gemm_f32_32x4_avx2, GSX_TARGET_AVX2, float, float, 32, 4)
GSX_GEMM_VARIANT(gemm_h32_32x4_avx2, GSX_TARGET_AVX2, half, float, 32, 4)
GSX_GEMM_VARIANT(gemm_b32_32x4_avx2, GSX_TARGET_AVX2, bfloat16, float, 32, 4)

GSX_GEMM_VARIANT(gemm_f64_32x6_avx512, GSX_TARGET_AVX512, double, double, kF64Avx512.mr,
                 kF64Avx512.nr)
GSX_GEMM_VARIANT(gemm_f32_32x8_avx512, GSX_TARGET_AVX512, float, float, 32, 8)
GSX_GEMM_VARIANT(gemm_h32_32x8_avx512, GSX_TARGET_AVX512, half, float, 32, 8)
GSX_GEMM_VARIANT(gemm_b32_32x8_avx512, GSX_TARGET_AVX512, bfloat16, float, 32, 8)
#endif  // GSX_X86_DISPATCH

#undef GSX_GEMM_VARIANT

/// The compiled kernel for storage type TS on `isa`.
template <typename TS, typename T>
BatchKernelFn<TS, T> kernel_for(Isa isa) noexcept {
  if constexpr (std::is_same_v<TS, double>) {
    static constexpr BatchKernelFn<double, double> fn[] =
        GSX_BY_ISA(gemm_f64_32x8_portable, gemm_f64_8x4_avx2, gemm_f64_32x6_avx512);
    return fn[static_cast<int>(isa)];
  } else if constexpr (std::is_same_v<TS, float>) {
    static constexpr BatchKernelFn<float, float> fn[] =
        GSX_BY_ISA(gemm_f32_32x4_portable, gemm_f32_32x4_avx2, gemm_f32_32x8_avx512);
    return fn[static_cast<int>(isa)];
  } else if constexpr (std::is_same_v<TS, half>) {
    static constexpr BatchKernelFn<half, float> fn[] =
        GSX_BY_ISA(gemm_h32_32x4_portable, gemm_h32_32x4_avx2, gemm_h32_32x8_avx512);
    return fn[static_cast<int>(isa)];
  } else {
    static constexpr BatchKernelFn<bfloat16, float> fn[] =
        GSX_BY_ISA(gemm_b32_32x4_portable, gemm_b32_32x4_avx2, gemm_b32_32x8_avx512);
    return fn[static_cast<int>(isa)];
  }
}

#undef GSX_BY_ISA

/// Runs the active ISA's kernel with thread-local packing scratch; the
/// buffers keep their capacity across tile-task invocations on a worker.
template <typename TS, typename T>
void run_batch(Trans ta, Trans tb, T alpha, const GemmBatchItem<TS, T>* items,
               std::size_t count, Part part = Part::All) {
  static thread_local std::vector<T> apack;
  static thread_local std::vector<T> bpack;
  kernel_for<TS, T>(active_isa())(ta, tb, alpha, items, count, part, kBlocking<T>, apack,
                                  bpack);
}

/// SYRK as the triangle part of GEMM(op(A), op(A)^T).
template <typename T>
void run_syrk(Uplo uplo, Trans trans, T alpha, Span2D<const T> a, Span2D<T> c) {
  const GemmBatchItem<T> item{a, a, c};
  const Trans tb = (trans == Trans::NoTrans) ? Trans::Trans : Trans::NoTrans;
  run_batch<T, T>(trans, tb, alpha, &item, 1,
                  (uplo == Uplo::Lower) ? Part::Lower : Part::Upper);
}

template <typename TS, typename T>
void run_packed(Trans ta, Trans tb, T alpha, Span2D<const TS> a, Span2D<const TS> b,
                Span2D<T> c) {
  const GemmBatchItem<TS, T> item{a, b, c};
  run_batch<TS, T>(ta, tb, alpha, &item, 1);
}

}  // namespace

const char* gemm_kernel_isa() noexcept {
  switch (active_isa()) {
    case Isa::Avx512: return "avx512";
    case Isa::Avx2: return "avx2";
    case Isa::Portable: break;
  }
  return "portable";
}

GemmDispatchInfo gemm_dispatch_info() noexcept {
  switch (active_isa()) {
    case Isa::Avx512: return {"avx512", 512, 2};
    case Isa::Avx2: return {"avx2", 256, 2};
    case Isa::Portable: break;
  }
  // Portable compiles to the baseline target (SSE2 on x86-64); calling its
  // peak "128-bit, dual-issue FMA" is optimistic on machines without FMA,
  // which is the right direction for an achieved-vs-peak denominator.
  return {"portable", 128, 2};
}

double gemm_peak_gflops(Precision p, double ghz) noexcept {
  const GemmDispatchInfo info = gemm_dispatch_info();
  // 16-bit storage widens to FP32 lanes; FP64 uses 8-byte lanes.
  const int lane_bits = (p == Precision::FP64) ? 64 : 32;
  const int lanes = info.vector_bits / lane_bits;
  return ghz * static_cast<double>(lanes) * 2.0 * static_cast<double>(info.fma_ports);
}

double measure_clock_ghz() {
  // Prefer the kernel's view of the clock; "cpu MHz" tracks the current
  // frequency on physical hosts and the nominal one on VMs.
  if (std::ifstream f{"/proc/cpuinfo"}; f) {
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("cpu MHz", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
          const double mhz = std::atof(line.c_str() + colon + 1);
          if (mhz > 100.0) return mhz / 1000.0;
        }
      }
    }
  }
  // Fallback: a dependent xorshift chain is 6 one-cycle ops per iteration
  // that no compiler can reassociate. Coarse (~±10%), and labeled as an
  // estimate wherever it surfaces.
  using Clock = std::chrono::steady_clock;
  volatile std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  std::uint64_t x = seed;
  const std::size_t iters = 50'000'000;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double t = std::chrono::duration<double>(Clock::now() - t0).count();
  seed = x;  // keep the chain observable
  return 6.0 * static_cast<double>(iters) / t / 1e9;
}

namespace detail {

void gemm_packed(Trans ta, Trans tb, double alpha, Span2D<const double> a,
                 Span2D<const double> b, Span2D<double> c) {
  run_packed<double, double>(ta, tb, alpha, a, b, c);
}

void gemm_packed(Trans ta, Trans tb, float alpha, Span2D<const float> a,
                 Span2D<const float> b, Span2D<float> c) {
  run_packed<float, float>(ta, tb, alpha, a, b, c);
}

void gemm_packed(Trans ta, Trans tb, float alpha, Span2D<const half> a,
                 Span2D<const half> b, Span2D<float> c) {
  run_packed<half, float>(ta, tb, alpha, a, b, c);
}

void gemm_packed(Trans ta, Trans tb, float alpha, Span2D<const bfloat16> a,
                 Span2D<const bfloat16> b, Span2D<float> c) {
  run_packed<bfloat16, float>(ta, tb, alpha, a, b, c);
}

void syrk_packed(Uplo uplo, Trans trans, double alpha, Span2D<const double> a,
                 Span2D<double> c) {
  run_syrk<double>(uplo, trans, alpha, a, c);
}

void syrk_packed(Uplo uplo, Trans trans, float alpha, Span2D<const float> a,
                 Span2D<float> c) {
  run_syrk<float>(uplo, trans, alpha, a, c);
}

void gemm_batch_packed(Trans ta, Trans tb, double alpha, const GemmBatchItem<double>* items,
                       std::size_t count) {
  if (count) run_batch<double, double>(ta, tb, alpha, items, count);
}

void gemm_batch_packed(Trans ta, Trans tb, float alpha, const GemmBatchItem<float>* items,
                       std::size_t count) {
  if (count) run_batch<float, float>(ta, tb, alpha, items, count);
}

void gemm_batch_packed(Trans ta, Trans tb, float alpha,
                       const GemmBatchItem<half, float>* items, std::size_t count) {
  if (count) run_batch<half, float>(ta, tb, alpha, items, count);
}

void gemm_batch_packed(Trans ta, Trans tb, float alpha,
                       const GemmBatchItem<bfloat16, float>* items, std::size_t count) {
  if (count) run_batch<bfloat16, float>(ta, tb, alpha, items, count);
}

}  // namespace detail

}  // namespace gsx::la
