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

namespace gsx::la {

namespace {

#if defined(__GNUC__)
#define GSX_ALWAYS_INLINE inline __attribute__((always_inline))
#define GSX_RESTRICT __restrict__
#else
#define GSX_ALWAYS_INLINE inline
#define GSX_RESTRICT
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#define GSX_X86_DISPATCH 1
#else
#define GSX_X86_DISPATCH 0
#endif

constexpr std::size_t round_up(std::size_t v, std::size_t q) noexcept {
  return (v + q - 1) / q * q;
}

// ---------------------------------------------------------------------------
// Packing. op(A) is copied into micro-panels of MR rows laid out k-major
// (panel p holds rows [p*MR, p*MR+MR), element (i, l) at p*MR*kc + l*MR + i),
// op(B) into micro-panels of NR columns (element (l, j) at p*NR*kc + l*NR + j).
// Ragged edges are zero-padded so the micro-kernel never branches; the store
// path masks them out. Widening (half/bfloat16 -> float) happens here, so the
// 16-bit entry points never materialize full-size FP32 copies.

template <typename TS, typename T, int MR>
GSX_ALWAYS_INLINE void pack_a(Trans ta, Span2D<const TS> a, std::size_t i0, std::size_t p0,
                              std::size_t mcb, std::size_t kcb, T* GSX_RESTRICT ap) {
  for (std::size_t ir = 0; ir < mcb; ir += MR) {
    const std::size_t mr = std::min<std::size_t>(MR, mcb - ir);
    T* GSX_RESTRICT panel = ap + ir * kcb;
    if (ta == Trans::NoTrans) {
      for (std::size_t l = 0; l < kcb; ++l) {
        const TS* GSX_RESTRICT src = &a(i0 + ir, p0 + l);
        T* GSX_RESTRICT dst = panel + l * MR;
        for (std::size_t i = 0; i < mr; ++i) dst[i] = static_cast<T>(src[i]);
        for (std::size_t i = mr; i < MR; ++i) dst[i] = T{0};
      }
    } else {
      for (std::size_t l = 0; l < kcb; ++l) {
        T* GSX_RESTRICT dst = panel + l * MR;
        for (std::size_t i = 0; i < mr; ++i) dst[i] = static_cast<T>(a(p0 + l, i0 + ir + i));
        for (std::size_t i = mr; i < MR; ++i) dst[i] = T{0};
      }
    }
  }
}

template <typename TS, typename T, int NR>
GSX_ALWAYS_INLINE void pack_b(Trans tb, Span2D<const TS> b, std::size_t j0, std::size_t p0,
                              std::size_t ncb, std::size_t kcb, T* GSX_RESTRICT bp) {
  for (std::size_t jr = 0; jr < ncb; jr += NR) {
    const std::size_t nr = std::min<std::size_t>(NR, ncb - jr);
    T* GSX_RESTRICT panel = bp + jr * kcb;
    if (tb == Trans::NoTrans) {
      // op(B)(l, j) = b(p0 + l, j0 + j): read each column contiguously.
      for (std::size_t j = 0; j < nr; ++j) {
        const TS* GSX_RESTRICT src = &b(p0, j0 + jr + j);
        for (std::size_t l = 0; l < kcb; ++l) panel[l * NR + j] = static_cast<T>(src[l]);
      }
    } else {
      // op(B)(l, j) = b(j0 + j, p0 + l): read rows of B, contiguous in j.
      for (std::size_t l = 0; l < kcb; ++l) {
        const TS* GSX_RESTRICT src = &b(j0 + jr, p0 + l);
        T* GSX_RESTRICT dst = panel + l * NR;
        for (std::size_t j = 0; j < nr; ++j) dst[j] = static_cast<T>(src[j]);
      }
    }
    if (nr < NR) {
      for (std::size_t l = 0; l < kcb; ++l)
        for (std::size_t j = nr; j < NR; ++j) panel[l * NR + j] = T{0};
    }
  }
}

// ---------------------------------------------------------------------------
// Micro-kernel: MR x NR register accumulators, one fused pass over a packed
// A micro-panel and a packed B micro-panel. The i loop is contiguous and
// vectorizes to the caller's target ISA; NR independent accumulator columns
// hide FMA latency.

template <typename T, int MR, int NR>
GSX_ALWAYS_INLINE void micro_accum(std::size_t kc, const T* GSX_RESTRICT ap,
                                   const T* GSX_RESTRICT bp, T* GSX_RESTRICT acc) {
  for (std::size_t l = 0; l < kc; ++l) {
    const T* GSX_RESTRICT al = ap + l * MR;
    const T* GSX_RESTRICT bl = bp + l * NR;
    for (int j = 0; j < NR; ++j) {
      const T blj = bl[j];
      T* GSX_RESTRICT accj = acc + static_cast<std::size_t>(j) * MR;
      for (int i = 0; i < MR; ++i) accj[i] += al[i] * blj;
    }
  }
}

template <typename T, int MR, int NR>
GSX_ALWAYS_INLINE void micro_store(T alpha, const T* GSX_RESTRICT acc, T* GSX_RESTRICT c,
                                   std::size_t ldc, std::size_t mr, std::size_t nr) {
  if (mr == MR && nr == NR) {
    for (int j = 0; j < NR; ++j) {
      T* GSX_RESTRICT cj = c + static_cast<std::size_t>(j) * ldc;
      const T* GSX_RESTRICT aj = acc + static_cast<std::size_t>(j) * MR;
      for (int i = 0; i < MR; ++i) cj[i] += alpha * aj[i];
    }
  } else {
    for (std::size_t j = 0; j < nr; ++j) {
      T* GSX_RESTRICT cj = c + j * ldc;
      const T* GSX_RESTRICT aj = acc + j * MR;
      for (std::size_t i = 0; i < mr; ++i) cj[i] += alpha * aj[i];
    }
  }
}

// ---------------------------------------------------------------------------
// The stored part of C: all of it (GEMM), or one triangle (SYRK, whose op(B)
// is op(A)^T). The predicates take a block of C by its top-left element
// (i0, j0) and its extent; a skipped block is never packed or computed.

enum class Part { All, Lower, Upper };

/// Whether the block holds an element of the part.
constexpr bool touches(Part part, std::size_t i0, std::size_t rows, std::size_t j0,
                       std::size_t cols) noexcept {
  switch (part) {
    case Part::Lower: return i0 + rows > j0;
    case Part::Upper: return j0 + cols > i0;
    case Part::All: break;
  }
  return true;
}

/// Whether every element of the block is in the part.
constexpr bool covers(Part part, std::size_t i0, std::size_t rows, std::size_t j0,
                      std::size_t cols) noexcept {
  switch (part) {
    case Part::Lower: return i0 + 1 >= j0 + cols;
    case Part::Upper: return i0 + rows <= j0 + 1;
    case Part::All: break;
  }
  return true;
}

/// micro_store for a micro-tile across the diagonal of a triangle part:
/// adds only the elements C(i0 + i, j0 + j) inside the triangle, each with
/// micro_store's arithmetic.
template <Part part, typename T, int MR>
GSX_ALWAYS_INLINE void micro_store_part(T alpha, const T* GSX_RESTRICT acc,
                                        T* GSX_RESTRICT c, std::size_t ldc, std::size_t mr,
                                        std::size_t nr, std::size_t i0, std::size_t j0) {
  for (std::size_t j = 0; j < nr; ++j) {
    // The diagonal element of column j0 + j sits at local row j0 + j - i0.
    const std::size_t diag = j0 + j;
    const std::size_t lo =
        (part == Part::Lower && diag > i0) ? std::min(diag - i0, mr) : 0;
    const std::size_t hi =
        (part == Part::Upper) ? (diag >= i0 ? std::min(diag - i0 + 1, mr) : 0) : mr;
    T* GSX_RESTRICT cj = c + j * ldc;
    const T* GSX_RESTRICT aj = acc + j * MR;
    for (std::size_t i = lo; i < hi; ++i) cj[i] += alpha * aj[i];
  }
}

/// Cache-blocking parameters (in elements): MC x KC blocks of packed op(A)
/// target L2, one KC x NR micro-panel of packed op(B) stays L1-resident, NC
/// bounds the packed-B footprint.
struct GemmBlocking {
  std::size_t mc;
  std::size_t kc;
  std::size_t nc;
};

// ---------------------------------------------------------------------------
// Macro-kernel: the five-loop BLIS structure, generalized to a batch of
// same-shape items. Packed B panels are re-used across every MC block of A
// *and* across consecutive items that share the same B operand (the shared
// panel tile of a TLR trailing-update column, the shared RHS block of a
// kriging micro-batch); C is touched once per KC-deep block. A single op is
// the count == 1 case, so one compiled variant serves both entry points and
// batched results are bit-identical to per-op calls by construction: each
// item sees exactly the per-op loop structure and accumulation order. A
// triangle `part` (SYRK) runs the same loops and skips what lies outside it,
// so each element it stores is the GEMM's bit for bit.

template <Part part, typename TS, typename T, int MR, int NR>
GSX_ALWAYS_INLINE void gemm_macro(Trans ta, Trans tb, T alpha,
                                  const GemmBatchItem<TS, T>* items, std::size_t count,
                                  const GemmBlocking& blk, std::vector<T>& apack,
                                  std::vector<T>& bpack) {
  const std::size_t m = items[0].c.rows();
  const std::size_t n = items[0].c.cols();
  const std::size_t k = (ta == Trans::NoTrans) ? items[0].a.cols() : items[0].a.rows();

  for (std::size_t jc = 0; jc < n; jc += blk.nc) {
    const std::size_t ncb = std::min(blk.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += blk.kc) {
      const std::size_t kcb = std::min(blk.kc, k - pc);
      bpack.resize(round_up(ncb, NR) * kcb);
      const TS* packed_b = nullptr;
      std::size_t packed_ld = 0;
      for (std::size_t it = 0; it < count; ++it) {
        const Span2D<const TS>& bi = items[it].b;
        if (bi.data() != packed_b || bi.ld() != packed_ld) {
          pack_b<TS, T, NR>(tb, bi, jc, pc, ncb, kcb, bpack.data());
          packed_b = bi.data();
          packed_ld = bi.ld();
        }
        const Span2D<const TS>& ai = items[it].a;
        const Span2D<T>& ci = items[it].c;
        for (std::size_t ic = 0; ic < m; ic += blk.mc) {
          const std::size_t mcb = std::min(blk.mc, m - ic);
          if (!touches(part, ic, mcb, jc, ncb)) continue;
          apack.resize(round_up(mcb, MR) * kcb);
          pack_a<TS, T, MR>(ta, ai, ic, pc, mcb, kcb, apack.data());
          for (std::size_t jr = 0; jr < ncb; jr += NR) {
            const std::size_t nr = std::min<std::size_t>(NR, ncb - jr);
            for (std::size_t ir = 0; ir < mcb; ir += MR) {
              const std::size_t mr = std::min<std::size_t>(MR, mcb - ir);
              const std::size_t i0 = ic + ir;
              const std::size_t j0 = jc + jr;
              if (!touches(part, i0, mr, j0, nr)) continue;
              T acc[static_cast<std::size_t>(MR) * NR] = {};
              micro_accum<T, MR, NR>(kcb, apack.data() + ir * kcb, bpack.data() + jr * kcb,
                                     acc);
              if (covers(part, i0, mr, j0, nr))
                micro_store<T, MR, NR>(alpha, acc, &ci(i0, j0), ci.ld(), mr, nr);
              else
                micro_store_part<part, T, MR>(alpha, acc, &ci(i0, j0), ci.ld(), mr, nr, i0,
                                              j0);
            }
          }
        }
      }
    }
  }
}

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
#define GSX_GEMM_VARIANT(name, attr, TS, T, MR, NR)                                       \
  attr void name(Trans ta, Trans tb, T alpha, const GemmBatchItem<TS, T>* items,          \
                 std::size_t count, Part part, const GemmBlocking& blk,                   \
                 std::vector<T>& apack, std::vector<T>& bpack) {                          \
    if constexpr (std::is_same_v<TS, T>) {                                                \
      if (part == Part::Lower)                                                            \
        return gemm_macro<Part::Lower, TS, T, MR, NR>(ta, tb, alpha, items, count, blk,   \
                                                      apack, bpack);                      \
      if (part == Part::Upper)                                                            \
        return gemm_macro<Part::Upper, TS, T, MR, NR>(ta, tb, alpha, items, count, blk,   \
                                                      apack, bpack);                      \
    }                                                                                     \
    gemm_macro<Part::All, TS, T, MR, NR>(ta, tb, alpha, items, count, blk, apack, bpack); \
  }

// Shapes were chosen empirically per ISA (GCC's SLP vectorizer is
// shape-sensitive; see docs/tuning.md before changing one). Each keeps every
// accumulator column a whole number of vectors and fully unrolls into
// independent FMA chains. 16-bit storage computes in FP32 and shares the
// FP32 shape.
GSX_GEMM_VARIANT(gemm_f64_32x8_portable, , double, double, 32, 8)
GSX_GEMM_VARIANT(gemm_f32_32x4_portable, , float, float, 32, 4)
GSX_GEMM_VARIANT(gemm_h32_32x4_portable, , half, float, 32, 4)
GSX_GEMM_VARIANT(gemm_b32_32x4_portable, , bfloat16, float, 32, 4)

#if GSX_X86_DISPATCH
#define GSX_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define GSX_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw,fma")))

GSX_GEMM_VARIANT(gemm_f64_8x4_avx2, GSX_TARGET_AVX2, double, double, 8, 4)
GSX_GEMM_VARIANT(gemm_f32_32x4_avx2, GSX_TARGET_AVX2, float, float, 32, 4)
GSX_GEMM_VARIANT(gemm_h32_32x4_avx2, GSX_TARGET_AVX2, half, float, 32, 4)
GSX_GEMM_VARIANT(gemm_b32_32x4_avx2, GSX_TARGET_AVX2, bfloat16, float, 32, 4)

GSX_GEMM_VARIANT(gemm_f64_32x6_avx512, GSX_TARGET_AVX512, double, double, 32, 6)
GSX_GEMM_VARIANT(gemm_f32_32x8_avx512, GSX_TARGET_AVX512, float, float, 32, 8)
GSX_GEMM_VARIANT(gemm_h32_32x8_avx512, GSX_TARGET_AVX512, half, float, 32, 8)
GSX_GEMM_VARIANT(gemm_b32_32x8_avx512, GSX_TARGET_AVX512, bfloat16, float, 32, 8)

#define GSX_BY_ISA(portable, avx2, avx512) {portable, avx2, avx512}
#else
#define GSX_BY_ISA(portable, avx2, avx512) {portable, portable, portable}
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

/// The one blocking per compute type, sized for ~48 KiB L1d and >= 1 MiB L2:
/// a packed A block is 256 KiB, a packed B micro-panel ~12 KiB, and NC keeps
/// the packed-B scratch of tall-skinny serving batches bounded. 16-bit
/// storage computes in FP32 and uses the FP32 blocking.
template <typename T>
constexpr GemmBlocking kBlocking =
    std::is_same_v<T, double> ? GemmBlocking{128, 256, 4096} : GemmBlocking{256, 256, 4096};

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
