// Shared helpers for the GeoStatX test suite.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <string_view>

#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "tile/sym_tile_matrix.hpp"

namespace gsx::test {

/// True when the packed GEMM kernels run no wider than the GSX_GEMM_ISA cap
/// (always true without one). The per-width reruns in tests/CMakeLists.txt
/// check it, so a rerun cannot pass while testing the native kernels.
inline bool gemm_isa_within_cap() {
  const auto rank = [](std::string_view isa) {
    return isa == "portable" ? 0 : isa == "avx2" ? 1 : 2;
  };
  const char* cap = std::getenv("GSX_GEMM_ISA");
  return cap == nullptr || rank(la::gemm_kernel_isa()) <= rank(cap);
}

/// Generate every stored tile of `a` from an element functor sigma(gi, gj)
/// over `workers` threads (SymTileMatrix::generate takes a block functor).
inline void generate(tile::SymTileMatrix& a,
                     const std::function<double(std::size_t, std::size_t)>& sigma,
                     std::size_t workers = 1) {
  a.generate(
      [&](std::size_t gi0, std::size_t gj0, Span2D<double> block) {
        for (std::size_t j = 0; j < block.cols(); ++j)
          for (std::size_t i = 0; i < block.rows(); ++i) block(i, j) = sigma(gi0 + i, gj0 + j);
      },
      workers);
}

inline la::Matrix<double> random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                                        double scale = 1.0) {
  la::Matrix<double> m(rows, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i) m(i, j) = scale * rng.normal();
  return m;
}

/// Random SPD matrix: A = B B^T + n*I.
inline la::Matrix<double> random_spd(std::size_t n, Rng& rng) {
  const la::Matrix<double> b = random_matrix(n, n, rng);
  la::Matrix<double> a(n, n);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, b.cview(), b.cview(), 0.0,
                   a.view());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

/// Rank-deficient matrix: A = U V^T with U, V random n x k.
inline la::Matrix<double> random_lowrank(std::size_t rows, std::size_t cols, std::size_t k,
                                         Rng& rng) {
  const la::Matrix<double> u = random_matrix(rows, k, rng);
  const la::Matrix<double> v = random_matrix(cols, k, rng);
  la::Matrix<double> a(rows, cols);
  la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, u.cview(), v.cview(), 0.0,
                   a.view());
  return a;
}

/// Reference O(n^3) GEMM with explicit index arithmetic (oracle).
template <typename T>
la::Matrix<T> naive_gemm(la::Trans ta, la::Trans tb, T alpha, const la::Matrix<T>& a,
                         const la::Matrix<T>& b, T beta, const la::Matrix<T>& c) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = (ta == la::Trans::NoTrans) ? a.cols() : a.rows();
  la::Matrix<T> out = c;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      T s{};
      for (std::size_t l = 0; l < k; ++l) {
        const T av = (ta == la::Trans::NoTrans) ? a(i, l) : a(l, i);
        const T bv = (tb == la::Trans::NoTrans) ? b(l, j) : b(j, l);
        s += av * bv;
      }
      out(i, j) = alpha * s + beta * c(i, j);
    }
  }
  return out;
}

/// The scalar column sweeps of B := L^{-1} B and B := B * L^{-T} (lower
/// L) that la::ref's vectorized solves must equal bit for bit: pivot by
/// pivot, each product rounded before its difference, an update skipped
/// where its multiplier is zero.
template <typename T>
void oracle_trsm_left(Span2D<const T> l, Span2D<T> b) {
  const std::size_t m = b.rows();
  for (std::size_t j = 0; j < b.cols(); ++j) {
    T* bj = &b(0, j);
    for (std::size_t kk = 0; kk < m; ++kk) {
      bj[kk] /= l(kk, kk);
      const T bkj = bj[kk];
      if (bkj == T{0}) continue;
      for (std::size_t i = kk + 1; i < m; ++i) {
        const volatile T p = l(i, kk) * bkj;  // rounded apart, never fused
        bj[i] -= p;
      }
    }
  }
}

template <typename T>
void oracle_trsm_right_trans(Span2D<const T> l, Span2D<T> b) {
  const std::size_t m = b.rows();
  for (std::size_t j = 0; j < b.cols(); ++j) {
    T* bj = &b(0, j);
    for (std::size_t kk = 0; kk < j; ++kk) {
      const T ljk = l(j, kk);
      if (ljk == T{0}) continue;
      for (std::size_t i = 0; i < m; ++i) {
        const volatile T p = b(i, kk) * ljk;
        bj[i] -= p;
      }
    }
    const T d = T{1} / l(j, j);
    for (std::size_t i = 0; i < m; ++i) bj[i] *= d;
  }
}

template <typename T>
double max_abs_diff(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  double d = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      d = std::max(d, std::fabs(static_cast<double>(a(i, j)) - static_cast<double>(b(i, j))));
  return d;
}

inline double rel_frobenius_diff(const la::Matrix<double>& a, const la::Matrix<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double d = a(i, j) - b(i, j);
      num += d * d;
      den += b(i, j) * b(i, j);
    }
  return std::sqrt(num) / std::max(std::sqrt(den), 1e-300);
}

}  // namespace gsx::test
