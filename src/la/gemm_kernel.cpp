#include "la/gemm_kernel.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <vector>

#include "common/isa.hpp"
#include "la/autotune.hpp"

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

std::size_t env_size(const char* name, std::size_t fallback) noexcept {
  if (const char* s = std::getenv(name)) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

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
// Macro-kernel: the five-loop BLIS structure, generalized to a batch of
// same-shape items. Packed B panels are re-used across every MC block of A
// *and* across consecutive items that share the same B operand (the shared
// panel tile of a TLR trailing-update column, the shared RHS block of a
// kriging micro-batch); C is touched once per KC-deep block. A single op is
// the count == 1 case, so one compiled variant serves both entry points and
// batched results are bit-identical to per-op calls by construction: each
// item sees exactly the per-op loop structure and accumulation order.

template <typename TS, typename T, int MR, int NR>
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
          apack.resize(round_up(mcb, MR) * kcb);
          pack_a<TS, T, MR>(ta, ai, ic, pc, mcb, kcb, apack.data());
          for (std::size_t jr = 0; jr < ncb; jr += NR) {
            const std::size_t nr = std::min<std::size_t>(NR, ncb - jr);
            for (std::size_t ir = 0; ir < mcb; ir += MR) {
              const std::size_t mr = std::min<std::size_t>(MR, mcb - ir);
              T acc[static_cast<std::size_t>(MR) * NR] = {};
              micro_accum<T, MR, NR>(kcb, apack.data() + ir * kcb, bpack.data() + jr * kcb,
                                     acc);
              micro_store<T, MR, NR>(alpha, acc, &ci(ic + ir, jc + jr), ci.ld(), mr, nr);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ISA variants. Each candidate register-tile shape is a concrete function
// compiled per target (the portable tile must fit 16 xmm registers; AVX2 has
// 16 ymm, AVX-512 32 zmm), so the whole macro-kernel (packing included) is
// vectorized for that target. All shapes exist on all ISAs; which one runs
// is a per-precision KernelConfig decision (default per ISA, overridable by
// a tuning profile — gsx_tune searches exactly this table).

template <typename TS, typename T>
using BatchKernelFn = void (*)(Trans, Trans, T, const GemmBatchItem<TS, T>*, std::size_t,
                               const GemmBlocking&, std::vector<T>&, std::vector<T>&);

#define GSX_GEMM_VARIANT(name, attr, TS, T, MR, NR)                                       \
  attr void name(Trans ta, Trans tb, T alpha, const GemmBatchItem<TS, T>* items,          \
                 std::size_t count, const GemmBlocking& blk, std::vector<T>& apack,       \
                 std::vector<T>& bpack) {                                                 \
    gemm_macro<TS, T, MR, NR>(ta, tb, alpha, items, count, blk, apack, bpack);            \
  }

// Shape candidates are chosen empirically per ISA (GCC's SLP vectorizer is
// shape-sensitive; see docs/tuning.md for the retuning recipe). The default
// shapes keep every accumulator column a whole number of vectors and fully
// unroll into independent FMA chains; the alternates are the plausible
// runners-up the autotuner searches.
GSX_GEMM_VARIANT(gemm_f64_32x8_portable, , double, double, 32, 8)
GSX_GEMM_VARIANT(gemm_f64_8x4_portable, , double, double, 8, 4)
GSX_GEMM_VARIANT(gemm_f64_32x6_portable, , double, double, 32, 6)
GSX_GEMM_VARIANT(gemm_f64_24x8_portable, , double, double, 24, 8)
GSX_GEMM_VARIANT(gemm_f32_32x4_portable, , float, float, 32, 4)
GSX_GEMM_VARIANT(gemm_f32_32x8_portable, , float, float, 32, 8)
GSX_GEMM_VARIANT(gemm_f32_48x8_portable, , float, float, 48, 8)
GSX_GEMM_VARIANT(gemm_h32_32x4_portable, , half, float, 32, 4)
GSX_GEMM_VARIANT(gemm_h32_32x8_portable, , half, float, 32, 8)
GSX_GEMM_VARIANT(gemm_h32_48x8_portable, , half, float, 48, 8)
GSX_GEMM_VARIANT(gemm_b32_32x4_portable, , bfloat16, float, 32, 4)
GSX_GEMM_VARIANT(gemm_b32_32x8_portable, , bfloat16, float, 32, 8)
GSX_GEMM_VARIANT(gemm_b32_48x8_portable, , bfloat16, float, 48, 8)

#if GSX_X86_DISPATCH
#define GSX_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define GSX_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw,fma")))

GSX_GEMM_VARIANT(gemm_f64_32x8_avx2, GSX_TARGET_AVX2, double, double, 32, 8)
GSX_GEMM_VARIANT(gemm_f64_8x4_avx2, GSX_TARGET_AVX2, double, double, 8, 4)
GSX_GEMM_VARIANT(gemm_f64_32x6_avx2, GSX_TARGET_AVX2, double, double, 32, 6)
GSX_GEMM_VARIANT(gemm_f64_24x8_avx2, GSX_TARGET_AVX2, double, double, 24, 8)
GSX_GEMM_VARIANT(gemm_f32_32x4_avx2, GSX_TARGET_AVX2, float, float, 32, 4)
GSX_GEMM_VARIANT(gemm_f32_32x8_avx2, GSX_TARGET_AVX2, float, float, 32, 8)
GSX_GEMM_VARIANT(gemm_f32_48x8_avx2, GSX_TARGET_AVX2, float, float, 48, 8)
GSX_GEMM_VARIANT(gemm_h32_32x4_avx2, GSX_TARGET_AVX2, half, float, 32, 4)
GSX_GEMM_VARIANT(gemm_h32_32x8_avx2, GSX_TARGET_AVX2, half, float, 32, 8)
GSX_GEMM_VARIANT(gemm_h32_48x8_avx2, GSX_TARGET_AVX2, half, float, 48, 8)
GSX_GEMM_VARIANT(gemm_b32_32x4_avx2, GSX_TARGET_AVX2, bfloat16, float, 32, 4)
GSX_GEMM_VARIANT(gemm_b32_32x8_avx2, GSX_TARGET_AVX2, bfloat16, float, 32, 8)
GSX_GEMM_VARIANT(gemm_b32_48x8_avx2, GSX_TARGET_AVX2, bfloat16, float, 48, 8)

GSX_GEMM_VARIANT(gemm_f64_32x8_avx512, GSX_TARGET_AVX512, double, double, 32, 8)
GSX_GEMM_VARIANT(gemm_f64_8x4_avx512, GSX_TARGET_AVX512, double, double, 8, 4)
GSX_GEMM_VARIANT(gemm_f64_32x6_avx512, GSX_TARGET_AVX512, double, double, 32, 6)
GSX_GEMM_VARIANT(gemm_f64_24x8_avx512, GSX_TARGET_AVX512, double, double, 24, 8)
GSX_GEMM_VARIANT(gemm_f32_32x4_avx512, GSX_TARGET_AVX512, float, float, 32, 4)
GSX_GEMM_VARIANT(gemm_f32_32x8_avx512, GSX_TARGET_AVX512, float, float, 32, 8)
GSX_GEMM_VARIANT(gemm_f32_48x8_avx512, GSX_TARGET_AVX512, float, float, 48, 8)
GSX_GEMM_VARIANT(gemm_h32_32x4_avx512, GSX_TARGET_AVX512, half, float, 32, 4)
GSX_GEMM_VARIANT(gemm_h32_32x8_avx512, GSX_TARGET_AVX512, half, float, 32, 8)
GSX_GEMM_VARIANT(gemm_h32_48x8_avx512, GSX_TARGET_AVX512, half, float, 48, 8)
GSX_GEMM_VARIANT(gemm_b32_32x4_avx512, GSX_TARGET_AVX512, bfloat16, float, 32, 4)
GSX_GEMM_VARIANT(gemm_b32_32x8_avx512, GSX_TARGET_AVX512, bfloat16, float, 32, 8)
GSX_GEMM_VARIANT(gemm_b32_48x8_avx512, GSX_TARGET_AVX512, bfloat16, float, 48, 8)
#endif  // GSX_X86_DISPATCH

#undef GSX_GEMM_VARIANT

/// The compiled shape table for a scalar type: one function per (shape, ISA).
/// Index 0 is the portable/AVX2 default... defaults per ISA are recorded
/// separately in default_shape_index().
template <typename TS, typename T>
struct ShapeVariant {
  int mr, nr;
  BatchKernelFn<TS, T> fn[3];  // indexed by Isa
};

template <typename TS>
const auto& shape_table() {
#if GSX_X86_DISPATCH
#define GSX_ROW(stem, mr, nr) \
  { mr, nr, {stem##_portable, stem##_avx2, stem##_avx512} }
#else
#define GSX_ROW(stem, mr, nr) \
  { mr, nr, {stem##_portable, stem##_portable, stem##_portable} }
#endif
  if constexpr (std::is_same_v<TS, double>) {
    static const ShapeVariant<double, double> t[] = {
        GSX_ROW(gemm_f64_32x8, 32, 8),
        GSX_ROW(gemm_f64_8x4, 8, 4),
        GSX_ROW(gemm_f64_32x6, 32, 6),
        GSX_ROW(gemm_f64_24x8, 24, 8),
    };
    return t;
  } else if constexpr (std::is_same_v<TS, float>) {
    static const ShapeVariant<float, float> t[] = {
        GSX_ROW(gemm_f32_32x4, 32, 4),
        GSX_ROW(gemm_f32_32x8, 32, 8),
        GSX_ROW(gemm_f32_48x8, 48, 8),
    };
    return t;
  } else if constexpr (std::is_same_v<TS, half>) {
    static const ShapeVariant<half, float> t[] = {
        GSX_ROW(gemm_h32_32x4, 32, 4),
        GSX_ROW(gemm_h32_32x8, 32, 8),
        GSX_ROW(gemm_h32_48x8, 48, 8),
    };
    return t;
  } else {
    static const ShapeVariant<bfloat16, float> t[] = {
        GSX_ROW(gemm_b32_32x4, 32, 4),
        GSX_ROW(gemm_b32_32x8, 32, 8),
        GSX_ROW(gemm_b32_48x8, 48, 8),
    };
    return t;
  }
#undef GSX_ROW
}

/// Default shape (index into shape_table) per ISA: the hand-picked shapes
/// every release before the autotuner shipped with.
int default_shape_index(Precision p, Isa isa) noexcept {
  if (p == Precision::FP64) {
    // portable 32x8, avx2 8x4, avx512 32x6.
    switch (isa) {
      case Isa::Portable: return 0;
      case Isa::Avx2: return 1;
      case Isa::Avx512: return 2;
    }
  }
  // FP32 compute group: portable/avx2 32x4, avx512 32x8.
  return isa == Isa::Avx512 ? 1 : 0;
}

constexpr std::size_t pidx(Precision p) noexcept { return static_cast<std::size_t>(p); }

template <typename TS>
constexpr Precision precision_of_storage() noexcept {
  if constexpr (std::is_same_v<TS, double>) return Precision::FP64;
  else if constexpr (std::is_same_v<TS, float>) return Precision::FP32;
  else if constexpr (std::is_same_v<TS, half>) return Precision::FP16;
  else return Precision::BF16;
}

template <typename TS>
int shape_count() noexcept {
  return static_cast<int>(std::size(shape_table<TS>()));
}

template <typename TS>
int find_shape(int mr, int nr) noexcept {
  const auto& t = shape_table<TS>();
  for (int i = 0; i < shape_count<TS>(); ++i)
    if (t[i].mr == mr && t[i].nr == nr) return i;
  return -1;
}

int find_shape_for(Precision p, int mr, int nr) noexcept {
  switch (p) {
    case Precision::FP64: return find_shape<double>(mr, nr);
    case Precision::FP32: return find_shape<float>(mr, nr);
    case Precision::FP16: return find_shape<half>(mr, nr);
    case Precision::BF16: return find_shape<bfloat16>(mr, nr);
  }
  return -1;
}

struct ActiveConfig {
  GemmBlocking blk;
  int shape = 0;  // index into the scalar type's shape table
};

KernelConfig compiled_default(Precision p, Isa isa) noexcept {
  // Blocking defaults sized for ~48 KiB L1d and >= 1 MiB L2: the packed A
  // block (MC x KC) fills a fraction of L2 (256 KiB at 8 bytes), one packed
  // B micro-panel (KC x NR) stays L1-resident (~12 KiB), and NC bounds the
  // packed-B panel so tall-skinny serving batches don't blow the scratch.
  // 16-bit storage computes in FP32 and starts from the FP32 blocking.
  KernelConfig cfg;
  cfg.blk = (p == Precision::FP64) ? GemmBlocking{128, 256, 4096}
                                   : GemmBlocking{256, 256, 4096};
  const int idx = default_shape_index(p, isa);
  switch (p) {
    case Precision::FP64:
      cfg.mr = shape_table<double>()[idx].mr;
      cfg.nr = shape_table<double>()[idx].nr;
      break;
    case Precision::FP32:
      cfg.mr = shape_table<float>()[idx].mr;
      cfg.nr = shape_table<float>()[idx].nr;
      break;
    case Precision::FP16:
      cfg.mr = shape_table<half>()[idx].mr;
      cfg.nr = shape_table<half>()[idx].nr;
      break;
    case Precision::BF16:
      cfg.mr = shape_table<bfloat16>()[idx].mr;
      cfg.nr = shape_table<bfloat16>()[idx].nr;
      break;
  }
  return cfg;
}

struct ConfigState {
  ActiveConfig cfg[kNumPrecisions];
};

/// Startup resolution: compiled defaults, then the tuning profile (if one
/// parses and matches the dispatched ISA), then GSX_GEMM_MC/KC/NC env
/// overrides (highest priority, applied to every precision as before).
ConfigState init_configs() {
  ConfigState st;
  const Isa isa = active_isa();
  for (std::size_t i = 0; i < kNumPrecisions; ++i) {
    const Precision p = static_cast<Precision>(i);
    const KernelConfig def = compiled_default(p, isa);
    st.cfg[i].blk = def.blk;
    st.cfg[i].shape = default_shape_index(p, isa);
  }
  if (auto prof = detail::startup_tune_profile()) {
    for (std::size_t i = 0; i < kNumPrecisions; ++i) {
      if (!prof->has[i]) continue;
      const Precision p = static_cast<Precision>(i);
      const KernelConfig& c = prof->config[i];
      const int idx = (c.mr == 0 && c.nr == 0) ? default_shape_index(p, isa)
                                               : find_shape_for(p, c.mr, c.nr);
      if (idx < 0 || c.blk.mc == 0 || c.blk.kc == 0 || c.blk.nc == 0) {
        std::fprintf(stderr,
                     "gsx: tuning profile entry for %.*s names an unknown shape "
                     "%dx%d or zero blocking; keeping defaults for it\n",
                     static_cast<int>(precision_name(p).size()), precision_name(p).data(),
                     c.mr, c.nr);
        continue;
      }
      st.cfg[i].blk = c.blk;
      st.cfg[i].shape = idx;
    }
  }
  for (std::size_t i = 0; i < kNumPrecisions; ++i) {
    st.cfg[i].blk.mc = env_size("GSX_GEMM_MC", st.cfg[i].blk.mc);
    st.cfg[i].blk.kc = env_size("GSX_GEMM_KC", st.cfg[i].blk.kc);
    st.cfg[i].blk.nc = env_size("GSX_GEMM_NC", st.cfg[i].blk.nc);
  }
  return st;
}

ConfigState& configs() {
  static ConfigState st = init_configs();
  return st;
}

/// Per-scalar-type variant selection plus thread-local packing scratch; the
/// buffers keep their capacity across tile-task invocations on a worker.
template <typename TS, typename T>
void run_batch(Trans ta, Trans tb, T alpha, const GemmBatchItem<TS, T>* items,
               std::size_t count) {
  static thread_local std::vector<T> apack;
  static thread_local std::vector<T> bpack;
  const ActiveConfig& cfg = configs().cfg[pidx(precision_of_storage<TS>())];
  shape_table<TS>()[cfg.shape].fn[static_cast<int>(active_isa())](ta, tb, alpha, items,
                                                                  count, cfg.blk, apack,
                                                                  bpack);
}

template <typename TS, typename T>
void run_packed(Trans ta, Trans tb, T alpha, Span2D<const TS> a, Span2D<const TS> b,
                Span2D<T> c) {
  const GemmBatchItem<TS, T> item{a, b, c};
  run_batch<TS, T>(ta, tb, alpha, &item, 1);
}

}  // namespace

GemmBlocking gemm_blocking(std::size_t scalar_bytes) noexcept {
  return gemm_kernel_config(scalar_bytes >= sizeof(double) ? Precision::FP64
                                                           : Precision::FP32)
      .blk;
}

KernelConfig gemm_kernel_config(Precision p) noexcept {
  const ActiveConfig& a = configs().cfg[pidx(p)];
  KernelConfig cfg;
  cfg.blk = a.blk;
  switch (p) {
    case Precision::FP64:
      cfg.mr = shape_table<double>()[a.shape].mr;
      cfg.nr = shape_table<double>()[a.shape].nr;
      break;
    case Precision::FP32:
      cfg.mr = shape_table<float>()[a.shape].mr;
      cfg.nr = shape_table<float>()[a.shape].nr;
      break;
    case Precision::FP16:
      cfg.mr = shape_table<half>()[a.shape].mr;
      cfg.nr = shape_table<half>()[a.shape].nr;
      break;
    case Precision::BF16:
      cfg.mr = shape_table<bfloat16>()[a.shape].mr;
      cfg.nr = shape_table<bfloat16>()[a.shape].nr;
      break;
  }
  return cfg;
}

KernelConfig gemm_default_config(Precision p) noexcept {
  return compiled_default(p, active_isa());
}

bool set_gemm_kernel_config(Precision p, const KernelConfig& cfg) noexcept {
  if (cfg.blk.mc == 0 || cfg.blk.kc == 0 || cfg.blk.nc == 0) return false;
  const int idx = (cfg.mr == 0 && cfg.nr == 0)
                      ? default_shape_index(p, active_isa())
                      : find_shape_for(p, cfg.mr, cfg.nr);
  if (idx < 0) return false;
  ActiveConfig& a = configs().cfg[pidx(p)];
  a.blk = cfg.blk;
  a.shape = idx;
  return true;
}

std::vector<GemmShape> gemm_kernel_shapes(Precision p) {
  std::vector<GemmShape> out;
  const int def = default_shape_index(p, active_isa());
  const auto push = [&](int mr, int nr, bool front) {
    if (front)
      out.insert(out.begin(), GemmShape{mr, nr});
    else
      out.push_back(GemmShape{mr, nr});
  };
  switch (p) {
    case Precision::FP64: {
      const auto& t = shape_table<double>();
      for (int i = 0; i < shape_count<double>(); ++i) push(t[i].mr, t[i].nr, i == def);
      break;
    }
    case Precision::FP32: {
      const auto& t = shape_table<float>();
      for (int i = 0; i < shape_count<float>(); ++i) push(t[i].mr, t[i].nr, i == def);
      break;
    }
    case Precision::FP16: {
      const auto& t = shape_table<half>();
      for (int i = 0; i < shape_count<half>(); ++i) push(t[i].mr, t[i].nr, i == def);
      break;
    }
    case Precision::BF16: {
      const auto& t = shape_table<bfloat16>();
      for (int i = 0; i < shape_count<bfloat16>(); ++i) push(t[i].mr, t[i].nr, i == def);
      break;
    }
  }
  return out;
}

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
