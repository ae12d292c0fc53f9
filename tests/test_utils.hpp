// Shared helpers for the GeoStatX test suite.
#pragma once

#include <unistd.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "geostat/assemble.hpp"
#include "geostat/prediction.hpp"
#include "la/blas.hpp"
#include "la/lapack.hpp"
#include "la/matrix.hpp"
#include "obs/analytics.hpp"
#include "obs/flight.hpp"
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

/// Whether GSX_FLIGHT sites record: false in a GSX_TELEMETRY=OFF build,
/// where only a direct obs::flight_record call reaches the rings.
#ifndef GSX_TELEMETRY_DISABLED
inline constexpr bool kFlightRecords = true;
#else
inline constexpr bool kFlightRecords = false;
#endif

/// This process's flight history as the Chrome trace gsx_cli --profile
/// writes (obs::write_gantt_trace), read back one line per trace event.
inline std::vector<std::string> flight_trace_lines() {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("gsx_trace_" + std::to_string(::getpid()) + ".json"))
                               .string();
  obs::write_gantt_trace(obs::build_history(obs::FlightRecorder::instance().snapshot()), path);
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  return lines;
}

/// Whether a trace line is a task slice of graph generation `gen`.
inline bool is_task_slice(const std::string& line, std::uint64_t gen) {
  const std::string arg = "\"gen\": " + std::to_string(gen);
  const std::size_t at = line.find(arg);
  return line.find("\"cat\": \"task\"") != std::string::npos && at != std::string::npos &&
         (line[at + arg.size()] == ',' || line[at + arg.size()] == '}');
}

/// The number after `key` in a trace line (NaN when absent).
inline double trace_number(const std::string& line, std::string_view key) {
  const std::size_t at = line.find(key);
  return at == std::string::npos ? std::nan("") : std::stod(line.substr(at + key.size()));
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

/// Materialize the lower-triangular Cholesky factor as a dense FP64 matrix
/// (upper triangle zero).
inline la::Matrix<double> reconstruct_lower(const tile::SymTileMatrix& l) {
  const std::size_t n = l.n();
  la::Matrix<double> full(n, n);
  for (std::size_t j = 0; j < l.nt(); ++j) {
    for (std::size_t i = j; i < l.nt(); ++i) {
      const la::Matrix<double> block = l.at(i, j).to_dense64();
      const std::size_t gi0 = l.tile_offset(i);
      const std::size_t gj0 = l.tile_offset(j);
      if (i == j) {
        // Diagonal tiles carry the factor only in their lower triangle.
        for (std::size_t jj = 0; jj < block.cols(); ++jj)
          for (std::size_t ii = jj; ii < block.rows(); ++ii)
            full(gi0 + ii, gj0 + jj) = block(ii, jj);
      } else {
        for (std::size_t jj = 0; jj < block.cols(); ++jj)
          for (std::size_t ii = 0; ii < block.rows(); ++ii)
            full(gi0 + ii, gj0 + jj) = block(ii, jj);
      }
    }
  }
  return full;
}

/// Cross-covariance Sigma_ab (|a| x |b|) between two location sets: the
/// Sigma_nm block of the prediction equations (4)-(5), for the dense
/// oracles.
inline la::Matrix<double> cross_covariance(const geostat::CovarianceModel& model,
                                           std::span<const geostat::Location> a,
                                           std::span<const geostat::Location> b) {
  la::Matrix<double> sigma(a.size(), b.size());
  model.fill(a, b, sigma.view());
  return sigma;
}

/// Dense kriging, Eqs. (4)-(5): assemble Sigma_nn, factor it with LAPACK
/// and predict every test location through the dense factor. The oracle of
/// the tile-native path (cholesky::tile_krige / tile_krige_solved). Throws
/// NumericalError if Sigma_nn is not positive definite.
inline geostat::KrigingResult krige(const geostat::CovarianceModel& model,
                                    std::span<const geostat::Location> train_locs,
                                    std::span<const double> z_train,
                                    std::span<const geostat::Location> test_locs,
                                    bool with_variance = true) {
  const std::size_t n = train_locs.size();
  const std::size_t m = test_locs.size();
  GSX_REQUIRE(z_train.size() == n, "krige: training data size mismatch");
  GSX_REQUIRE(m > 0, "krige: no test locations");
  la::Matrix<double> chol = geostat::covariance_matrix(model, train_locs);
  const int info = la::potrf(chol.view());
  if (info != 0)
    throw NumericalError("krige: Sigma_nn not positive definite at pivot " +
                         std::to_string(info));

  // W = L^{-1} Sigma_nm  (n x m), y = L^{-1} Z_n.
  la::Matrix<double> w = cross_covariance(model, train_locs, test_locs);
  la::trsm_left(chol.cview(), w.view());
  std::vector<double> y(z_train.begin(), z_train.end());
  la::ref::trsm_left(chol.cview(), Span2D<double>(y.data(), n, 1));

  geostat::KrigingResult out;
  out.mean.assign(m, 0.0);
  // Z_m = Sigma_mn Sigma_nn^{-1} Z_n = W^T y.
  la::gemv<double>(la::Trans::Trans, 1.0, w.cview(), y.data(), 0.0, out.mean.data());

  if (with_variance) {
    out.variance.assign(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      const double smm = model(test_locs[j], test_locs[j]);
      double wnorm = 0.0;
      for (std::size_t i = 0; i < n; ++i) wnorm += w(i, j) * w(i, j);
      out.variance[j] = smm - wnorm;
    }
  }
  return out;
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
