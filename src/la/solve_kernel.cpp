// The triangular-solve and GEMV kernels of the forward solves: the FP64
// solve B := L^{-1} B (la::ref::trsm_left), the panel solve's base blocks
// B := B * L^{-T} (la::ref::trsm_right_trans) and the forward solve's
// y := y - A x (la::gemv_sub). Each is compiled once per ISA and dispatched
// on active_isa(), like the Matérn lanes.
//
// Every element of a result takes exactly the operations of the reference
// loop it replaces, in the same order: each product is rounded before its
// difference (this file is built with -ffp-contract=off, and no target list
// here names FMA; GCC's AVX-512F implies it), a division stays a division,
// and an update is skipped exactly where the reference skips it. Lanes and
// register blocks only change which elements are computed side by side, so
// the bits do not depend on the ISA, the number of right-hand sides or the
// blocking. The forward solve is left-looking for that reason: a block of
// rows collects every earlier row's update in increasing order and is then
// solved in place, so B is read and written once per block instead of once
// per pivot.
//
// This file must not share a translation unit with the GEMM kernels
// (gemm_kernel.cpp): code added there moves their machine code.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/isa.hpp"
#include "la/blas.hpp"

namespace gsx::la {

namespace {

#define GSX_SOLVE_INLINE inline __attribute__((always_inline))

/// W lanes of doubles, their comparison masks, and W floats.
template <int W>
struct Lanes {
  typedef double D __attribute__((vector_size(W * sizeof(double))));
  typedef std::int64_t M __attribute__((vector_size(W * sizeof(double))));
  typedef float F __attribute__((vector_size(W * sizeof(float))));
};
template <int W>
using VecD = typename Lanes<W>::D;
template <int W>
using VecM = typename Lanes<W>::M;

/// W consecutive elements widened (exactly) to doubles.
template <int W, typename TS>
GSX_SOLVE_INLINE VecD<W> load(const TS* p) {
  if constexpr (std::is_same_v<TS, double>) {
    VecD<W> v;
    std::memcpy(&v, p, sizeof v);
    return v;
  } else {
    typename Lanes<W>::F f;
    std::memcpy(&f, p, sizeof f);
    return __builtin_convertvector(f, VecD<W>);
  }
}

template <int W>
GSX_SOLVE_INLINE void store(double* p, VecD<W> v) {
  std::memcpy(p, &v, sizeof v);
}

// ------------------------------------------------------------ B := L^{-1} B
//
// Row i of column j is b_ij - L(i,0) x_0j - L(i,1) x_1j - ... over kk < i in
// increasing kk, skipping the x_kk,j that are zero, then divided by L(i,i):
// ref's column sweep in another loop order.

/// Rows [i0, i0 + RB * W) of NC columns of B, with rows [0, i0) solved.
template <int W, int RB, int NC>
GSX_SOLVE_INLINE void trsm_left_rows(const double* l, std::size_t ldl, double* b,
                                     std::size_t ldb, std::size_t i0) {
  VecD<W> acc[NC][RB];
  for (int c = 0; c < NC; ++c)
    for (int r = 0; r < RB; ++r) acc[c][r] = load<W>(b + c * ldb + i0 + r * W);

  // The solved rows' updates.
  for (std::size_t kk = 0; kk < i0; ++kk) {
    const double* lk = l + kk * ldl + i0;
    VecD<W> lv[RB];
    for (int r = 0; r < RB; ++r) lv[r] = load<W>(lk + r * W);
    for (int c = 0; c < NC; ++c) {
      const double x = b[c * ldb + kk];
      if (x == 0.0) continue;
      for (int r = 0; r < RB; ++r) acc[c][r] -= lv[r] * x;
    }
  }

  // The block's own triangle: row i0 + t is final once rows i0 .. i0 + t - 1
  // have updated it; it then updates the rows below it in the block (the
  // lanes above it are left as they are, whatever L holds there).
  VecM<W> lane{};
  for (int i = 0; i < W; ++i) lane[i] = i;
#pragma GCC unroll 32
  for (int t = 0; t < RB * W; ++t) {
    const int q = t / W;
    const int p = t % W;
    const double* lk = l + (i0 + t) * ldl + i0;
    const double d = lk[t];
    for (int c = 0; c < NC; ++c) {
      const double x = acc[c][q][p] / d;
      acc[c][q][p] = x;
      if (x == 0.0) continue;
      acc[c][q] = lane > p ? acc[c][q] - load<W>(lk + q * W) * x : acc[c][q];
      for (int r = q + 1; r < RB; ++r) acc[c][r] -= load<W>(lk + r * W) * x;
    }
  }

  for (int c = 0; c < NC; ++c)
    for (int r = 0; r < RB; ++r) store<W>(b + c * ldb + i0 + r * W, acc[c][r]);
}

/// NC columns of B from column j on, top to bottom: blocks of RB * W rows,
/// then of W rows, then single rows.
template <int W, int RB, int NC>
GSX_SOLVE_INLINE void trsm_left_cols(Span2D<const double> l, Span2D<double> b,
                                     std::size_t j) {
  const std::size_t m = b.rows();
  const double* lp = l.data();
  double* bp = &b(0, j);
  std::size_t i0 = 0;
  for (; i0 + RB * W <= m; i0 += RB * W)
    trsm_left_rows<W, RB, NC>(lp, l.ld(), bp, b.ld(), i0);
  if constexpr (RB > 1) {
    for (; i0 + W <= m; i0 += W) trsm_left_rows<W, 1, NC>(lp, l.ld(), bp, b.ld(), i0);
  }
  for (; i0 < m; ++i0) {
    for (int c = 0; c < NC; ++c) {
      double* bc = bp + c * b.ld();
      double s = bc[i0];
      for (std::size_t kk = 0; kk < i0; ++kk) {
        const double x = bc[kk];
        if (x == 0.0) continue;
        s -= l(i0, kk) * x;
      }
      bc[i0] = s / l(i0, i0);
    }
  }
}

template <int W, int RB>
GSX_SOLVE_INLINE void trsm_left_lanes(Span2D<const double> l, Span2D<double> b) {
  const std::size_t n = b.cols();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) trsm_left_cols<W, RB, 4>(l, b, j);
  if (j + 2 <= n) {
    trsm_left_cols<W, RB, 2>(l, b, j);
    j += 2;
  }
  if (j < n) trsm_left_cols<W, RB, 1>(l, b, j);
}

// ---------------------------------------------------------- B := B * L^{-T}
//
// The reference loops themselves: column j of B takes -B(:,kk) * L(j,kk)
// for kk < j in increasing kk (skipped where L(j,kk) is zero), then one
// scale by 1 / L(j,j). Its rows are independent, so the vectorizer may run
// them side by side at the target's width without touching the order.

template <typename T>
GSX_SOLVE_INLINE void trsm_right_trans_loops(Span2D<const T> l, Span2D<T> b) {
  const std::size_t m = b.rows();
  for (std::size_t j = 0; j < b.cols(); ++j) {
    T* __restrict__ bj = &b(0, j);
    for (std::size_t kk = 0; kk < j; ++kk) {
      const T ljk = l(j, kk);
      if (ljk == T{0}) continue;
      const T* __restrict__ bk = &b(0, kk);
      for (std::size_t i = 0; i < m; ++i) bj[i] -= bk[i] * ljk;
    }
    const T d = T{1} / l(j, j);
    for (std::size_t i = 0; i < m; ++i) bj[i] *= d;
  }
}

// ------------------------------------------------------------ y := y - A x
//
// Row i is y_i - A(i,0) x_0 - A(i,1) x_1 - ... in increasing j, skipping the
// x_j that are zero: la::gemv(NoTrans, -1, A, x, 1, y)'s order (its
// y_i + A(i,j) * (-x_j) rounds like y_i - A(i,j) * x_j). An FP32 A is
// widened element by element, exactly.

/// Rows [i0, i0 + RB * W) of y.
template <int W, int RB, typename TS>
GSX_SOLVE_INLINE void gemv_sub_rows(Span2D<const TS> a, const double* x, double* y,
                                    std::size_t i0) {
  VecD<W> acc[RB];
  for (int r = 0; r < RB; ++r) acc[r] = load<W>(y + i0 + r * W);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const TS* aj = &a(i0, j);
    for (int r = 0; r < RB; ++r) acc[r] -= load<W>(aj + r * W) * xj;
  }
  for (int r = 0; r < RB; ++r) store<W>(y + i0 + r * W, acc[r]);
}

template <int W, int RB, typename TS>
GSX_SOLVE_INLINE void gemv_sub_lanes(Span2D<const TS> a, const double* x, double* y) {
  const std::size_t m = a.rows();
  std::size_t i0 = 0;
  for (; i0 + RB * W <= m; i0 += RB * W) gemv_sub_rows<W, RB>(a, x, y, i0);
  for (; i0 + W <= m; i0 += W) gemv_sub_rows<W, 1>(a, x, y, i0);
  for (; i0 < m; ++i0) {
    double s = y[i0];
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double xj = x[j];
      if (xj == 0.0) continue;
      s -= static_cast<double>(a(i0, j)) * xj;
    }
    y[i0] = s;
  }
}

// ------------------------------------------------------------ per-ISA code

// Lanes per ISA: 2 doubles in the baseline's SSE2, 4 with AVX2, 8 with
// AVX-512. The solve keeps two lane vectors of rows per block (four for the
// GEMV), so its register block is 4, 8 or 16 rows by up to 4 columns.
#define GSX_SOLVE_VARIANTS(suffix, attr, W)                                          \
  attr void trsm_left_##suffix(Span2D<const double> l, Span2D<double> b) {           \
    trsm_left_lanes<W, 2>(l, b);                                                     \
  }                                                                                  \
  attr void trsm_right_trans_##suffix(Span2D<const double> l, Span2D<double> b) {    \
    trsm_right_trans_loops<double>(l, b);                                            \
  }                                                                                  \
  attr void trsm_right_trans_##suffix(Span2D<const float> l, Span2D<float> b) {      \
    trsm_right_trans_loops<float>(l, b);                                             \
  }                                                                                  \
  attr void gemv_sub_##suffix(Span2D<const double> a, const double* x, double* y) {  \
    gemv_sub_lanes<W, 4>(a, x, y);                                                   \
  }                                                                                  \
  attr void gemv_sub_##suffix(Span2D<const float> a, const double* x, double* y) {   \
    gemv_sub_lanes<W, 4>(a, x, y);                                                   \
  }

GSX_SOLVE_VARIANTS(portable, , 2)
#if defined(__x86_64__) && defined(__GNUC__)
#define GSX_SOLVE_X86 1
GSX_SOLVE_VARIANTS(avx2, __attribute__((target("avx2"))), 4)
GSX_SOLVE_VARIANTS(avx512, __attribute__((target("avx512f"))), 8)
#else
#define GSX_SOLVE_X86 0
#endif

#undef GSX_SOLVE_VARIANTS

/// Calls the variant of `name` for the active ISA.
#if GSX_SOLVE_X86
#define GSX_SOLVE_DISPATCH(name, ...)                              \
  switch (active_isa()) {                                          \
    case Isa::Avx512: return name##_avx512(__VA_ARGS__);           \
    case Isa::Avx2: return name##_avx2(__VA_ARGS__);               \
    case Isa::Portable: break;                                     \
  }                                                                \
  return name##_portable(__VA_ARGS__)
#else
#define GSX_SOLVE_DISPATCH(name, ...) return name##_portable(__VA_ARGS__)
#endif

}  // namespace

namespace ref {

void trsm_left(Span2D<const double> l, Span2D<double> b) { GSX_SOLVE_DISPATCH(trsm_left, l, b); }

void trsm_right_trans(Span2D<const double> l, Span2D<double> b) {
  GSX_SOLVE_DISPATCH(trsm_right_trans, l, b);
}

void trsm_right_trans(Span2D<const float> l, Span2D<float> b) {
  GSX_SOLVE_DISPATCH(trsm_right_trans, l, b);
}

}  // namespace ref

void gemv_sub(Span2D<const double> a, const double* x, double* y) {
  GSX_SOLVE_DISPATCH(gemv_sub, a, x, y);
}

void gemv_sub(Span2D<const float> a, const double* x, double* y) {
  GSX_SOLVE_DISPATCH(gemv_sub, a, x, y);
}

}  // namespace gsx::la
