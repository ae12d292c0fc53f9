// The packed GEMM's loop nest, shared by the two translation units that
// instantiate it: gemm_kernel.cpp (GEMM and SYRK over views, packing A per
// block) and gemm_prepacked.cpp (GEMM over a PackedMatrix). Internal to
// src/la. Everything here has internal linkage and is inlined into the
// per-ISA kernels, so each file compiles its own instances, and code added
// to one file cannot shift the inlining budget of the other's kernels.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/isa.hpp"
#include "common/span2d.hpp"
#include "la/blas_types.hpp"
#include "la/gemm_kernel.hpp"

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
// so each element it stores is the GEMM's bit for bit. The A source is a
// template argument too: packed per block from a view (GEMM, SYRK), or read
// from a PackedMatrix, whose slab pc holds the blocks this loop would pack
// (block ic at offset round_up(m, MR) * pc + ic * kcb); the micro-kernel
// sequence is the same either way.

enum class ASource { View, Prepacked };

/// Block (ic, pc) of packed op(A): the scratch a view's block was just
/// packed into, or its place in a PackedMatrix.
template <int MR, typename TS, typename T>
GSX_ALWAYS_INLINE const T* a_block(const Span2D<const TS>&, const std::vector<T>& apack,
                                   std::size_t, std::size_t, std::size_t, std::size_t) {
  return apack.data();
}
template <int MR>
GSX_ALWAYS_INLINE const double* a_block(const PackedMatrix* a, const std::vector<double>&,
                                        std::size_t m, std::size_t ic, std::size_t pc,
                                        std::size_t kcb) {
  return a->panels() + round_up(m, MR) * pc + ic * kcb;
}

/// k of an item's product.
template <typename TS, typename T>
GSX_ALWAYS_INLINE std::size_t inner_dim(Trans ta, const GemmBatchItem<TS, T>& item) {
  return (ta == Trans::NoTrans) ? item.a.cols() : item.a.rows();
}
GSX_ALWAYS_INLINE std::size_t inner_dim(Trans, const PackedGemmItem& item) {
  return item.a->cols();
}

template <ASource src, typename TS, typename T>
using MacroItem =
    std::conditional_t<src == ASource::View, GemmBatchItem<TS, T>, PackedGemmItem>;

template <Part part, ASource src, typename TS, typename T, int MR, int NR>
GSX_ALWAYS_INLINE void gemm_macro(Trans ta, Trans tb, T alpha,
                                  const MacroItem<src, TS, T>* items, std::size_t count,
                                  const GemmBlocking& blk, std::vector<T>& apack,
                                  std::vector<T>& bpack) {
  const std::size_t m = items[0].c.rows();
  const std::size_t n = items[0].c.cols();
  const std::size_t k = inner_dim(ta, items[0]);

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
        const auto& ai = items[it].a;
        const Span2D<T>& ci = items[it].c;
        for (std::size_t ic = 0; ic < m; ic += blk.mc) {
          const std::size_t mcb = std::min(blk.mc, m - ic);
          if (!touches(part, ic, mcb, jc, ncb)) continue;
          if constexpr (src == ASource::View) {
            apack.resize(round_up(mcb, MR) * kcb);
            pack_a<TS, T, MR>(ta, ai, ic, pc, mcb, kcb, apack.data());
          }
          for (std::size_t jr = 0; jr < ncb; jr += NR) {
            const std::size_t nr = std::min<std::size_t>(NR, ncb - jr);
            for (std::size_t ir = 0; ir < mcb; ir += MR) {
              const std::size_t mr = std::min<std::size_t>(MR, mcb - ir);
              const std::size_t i0 = ic + ir;
              const std::size_t j0 = jc + jr;
              if (!touches(part, i0, mr, j0, nr)) continue;
              T acc[static_cast<std::size_t>(MR) * NR] = {};
              micro_accum<T, MR, NR>(kcb, a_block<MR>(ai, apack, m, ic, pc, kcb) + ir * kcb,
                                     bpack.data() + jr * kcb, acc);
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


/// The one blocking per compute type, sized for ~48 KiB L1d and >= 1 MiB L2:
/// a packed A block is 256 KiB, a packed B micro-panel ~12 KiB, and NC keeps
/// the packed-B scratch of tall-skinny serving batches bounded. 16-bit
/// storage computes in FP32 and uses the FP32 blocking.
template <typename T>
constexpr GemmBlocking kBlocking =
    std::is_same_v<T, double> ? GemmBlocking{128, 256, 4096} : GemmBlocking{256, 256, 4096};

/// The FP64 register tile (MR x NR) per ISA, indexed by Isa. Shapes were
/// chosen empirically (see the kernels in gemm_kernel.cpp); PackedMatrix's
/// panels are MR rows of the kernel it is packed for.
struct RegisterTile {
  int mr;
  int nr;
};
#if GSX_X86_DISPATCH
constexpr RegisterTile kF64Tile[] = {{32, 8}, {8, 4}, {32, 6}};
#else
constexpr RegisterTile kF64Tile[] = {{32, 8}, {32, 8}, {32, 8}};
#endif
constexpr RegisterTile kF64Portable = kF64Tile[static_cast<int>(Isa::Portable)];
constexpr RegisterTile kF64Avx2 = kF64Tile[static_cast<int>(Isa::Avx2)];
constexpr RegisterTile kF64Avx512 = kF64Tile[static_cast<int>(Isa::Avx512)];
static_assert(kBlocking<double>.mc % kF64Portable.mr == 0 &&
                  kBlocking<double>.mc % kF64Avx2.mr == 0 &&
                  kBlocking<double>.mc % kF64Avx512.mr == 0,
              "every MC block of a PackedMatrix slab starts on a panel");

#if GSX_X86_DISPATCH
#define GSX_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define GSX_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw,fma")))
#define GSX_BY_ISA(portable, avx2, avx512) {portable, avx2, avx512}
#else
#define GSX_BY_ISA(portable, avx2, avx512) {portable, portable, portable}
#endif  // GSX_X86_DISPATCH

}  // namespace

}  // namespace gsx::la
