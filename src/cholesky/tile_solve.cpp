#include "cholesky/tile_solve.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "runtime/task_graph.hpp"

#include "cholesky/tile_kernels.hpp"
#include "common/error.hpp"
#include "geostat/assemble.hpp"
#include "la/blas.hpp"
#include "obs/flight.hpp"
#include "obs/flops.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace gsx::cholesky {

using tile::SymTileMatrix;
using tile::Tile;
using tile::TileFormat;

double tile_logdet(const SymTileMatrix& l) {
  double s = 0.0;
  for (std::size_t k = 0; k < l.nt(); ++k) {
    const Tile& d = l.at(k, k);
    GSX_REQUIRE(d.format() == TileFormat::Dense && d.precision() == Precision::FP64,
                "tile_logdet: diagonal tiles must be dense FP64");
    const auto& m = d.matrix<double>();
    for (std::size_t i = 0; i < m.rows(); ++i) {
      GSX_REQUIRE(m(i, i) > 0.0, "tile_logdet: factor has non-positive diagonal");
      s += std::log(m(i, i));
    }
  }
  const double result = 2.0 * s;
  if (!std::isfinite(result)) {
    if (obs::health_enabled()) obs::record_nonfinite("solve", -1, -1, 1);
    obs::log_warn("cholesky", "non-finite log-determinant", {obs::lf("logdet", result)});
  }
  return result;
}

namespace {

/// Apply z_i -= A_ik * z_k for an off-diagonal tile of the factor. FP64
/// and FP32 tiles are read in place; a 16-bit tile is widened first.
void apply_offdiag(const Tile& t, const double* zk, double* zi) {
  if (t.format() == TileFormat::LowRank) {
    const LrOperand a(t);
    tlr::lr_gemv(-1.0, a.view(), zk, zi);
  } else if (t.precision() == Precision::FP64) {
    la::gemv_sub(t.matrix<double>().cview(), zk, zi);
  } else if (t.precision() == Precision::FP32) {
    la::gemv_sub(t.matrix<float>().cview(), zk, zi);
  } else {
    const DenseOperand<double> a(t);
    la::gemv_sub(a.view(), zk, zi);
  }
}

/// Apply z_k -= A_ik^T * z_i.
void apply_offdiag_trans(const Tile& t, const double* zi, double* zk) {
  if (t.format() == TileFormat::LowRank) {
    const LrOperand a(t);
    tlr::lr_gemv_trans(-1.0, a.view(), zi, zk);
  } else {
    const DenseOperand<double> a(t);
    la::gemv<double>(la::Trans::Trans, -1.0, a.view(), zi, 1.0, zk);
  }
}

}  // namespace

void tile_forward_solve(const SymTileMatrix& l, std::span<double> z) {
  GSX_REQUIRE(z.size() == l.n(), "tile_forward_solve: vector size mismatch");
  const std::size_t nt = l.nt();
  for (std::size_t k = 0; k < nt; ++k) {
    double* zk = z.data() + l.tile_offset(k);
    // z_k := L_kk^{-1} z_k.
    la::ref::trsm_left(l.at(k, k).matrix<double>().cview(),
                       Span2D<double>(zk, l.tile_dim(k), 1));
    for (std::size_t i = k + 1; i < nt; ++i)
      apply_offdiag(l.at(i, k), zk, z.data() + l.tile_offset(i));
  }
}

void tile_backward_solve(const SymTileMatrix& l, std::span<double> z) {
  GSX_REQUIRE(z.size() == l.n(), "tile_backward_solve: vector size mismatch");
  const std::size_t nt = l.nt();
  for (std::size_t k = nt; k-- > 0;) {
    double* zk = z.data() + l.tile_offset(k);
    for (std::size_t i = k + 1; i < nt; ++i)
      apply_offdiag_trans(l.at(i, k), z.data() + l.tile_offset(i), zk);
    // z_k := L_kk^{-T} z_k.
    la::ref::trsm_left_trans<double>(l.at(k, k).matrix<double>().cview(),
                                     Span2D<double>(zk, l.tile_dim(k), 1));
  }
}

geostat::LoglikValue tile_loglik(const SymTileMatrix& l, std::span<const double> z) {
  GSX_REQUIRE(z.size() == l.n(), "tile_loglik: vector size mismatch");
  const obs::ScopedPhase phase(obs::Phase::Solve);
  obs::add_flops(obs::KernelOp::Solve, Precision::FP64, obs::trsm_flops(1, l.n()));
  geostat::LoglikValue out;
  out.logdet = tile_logdet(l);
  std::vector<double> y(z.begin(), z.end());
  {
    const obs::KernelTimer timer(obs::KernelOp::Solve, Precision::FP64);
    tile_forward_solve(l, y);
  }
  out.quadratic = 0.0;
  for (double v : y) out.quadratic += v * v;
  constexpr double kLog2Pi = 1.8378770664093454835606594728112;
  out.loglik =
      -0.5 * (static_cast<double>(l.n()) * kLog2Pi + out.logdet + out.quadratic);
  out.ok = true;
  return out;
}

namespace {

/// B_i -= U (V^T B_k) for a low-rank off-diagonal tile, in the reference
/// accumulation order at every width of B: each column's sums take the
/// same operations whatever columns it is solved with.
void apply_lowrank_multi(const Tile& t, Span2D<const double> bk, Span2D<double> bi) {
  const LrOperand a(t);
  const tlr::LrView& lr = a.view();
  const std::size_t k = lr.rank();
  if (k == 0) return;
  la::Matrix<double> w(k, bk.cols());
  la::ref::gemm<double>(la::Trans::Trans, la::Trans::NoTrans, 1.0, lr.v, bk, 0.0, w.view());
  la::ref::gemm<double>(la::Trans::NoTrans, la::Trans::NoTrans, -1.0, lr.u, w.cview(), 1.0,
                        bi);
}

/// Forward-solve panel update: B_i -= A_ik * B_k for every i > k, all
/// sharing the solved block row B_k. Dense tiles of equal row count go
/// through one batched GEMM over their packed operands (the packed B_k
/// panel is re-used across the group); a ragged dense tile runs alone and a
/// low-rank one through its factors. Every B_i is written exactly once, so
/// the result is bit-identical to looping.
void apply_offdiag_multi_batch(const SymTileMatrix& l, const PackedOffdiag& packed,
                               std::size_t k, Span2D<const double> bk,
                               Span2D<double> cols) {
  const std::size_t nt = l.nt();
  std::vector<la::PackedGemmItem> items;
  for (std::size_t i = k + 1; i < nt; ++i) {
    auto bi = cols.sub(l.tile_offset(i), 0, l.tile_dim(i), cols.cols());
    const la::PackedMatrix* a = packed.at(i, k);
    if (a == nullptr) {
      apply_lowrank_multi(l.at(i, k), bk, bi);
    } else if (!items.empty() && bi.rows() != items.front().c.rows()) {
      la::gemm(-1.0, *a, bk, 1.0, bi);
    } else {
      items.push_back({a, bk, bi});
    }
  }
  la::gemm_batch(-1.0, items.data(), items.size(), 1.0);
}

/// Column blocks of a multi-RHS solve: one block below 2 *
/// kSolveMinBlockCols columns, else at most kSolveMaxBlocks blocks of at
/// least kSolveMinBlockCols columns each.
constexpr std::size_t kSolveMinBlockCols = 16;
constexpr std::size_t kSolveMaxBlocks = 16;

/// Partition the m RHS columns into blocks and run `solve` on each, up to
/// `workers` at a time. Every kernel of the solve takes each column through
/// the same operations whatever block it is in, so the partition sets only
/// how the work is shared, never the bits.
void solve_columns_parallel(Span2D<double> b, std::size_t workers,
                            const std::function<void(Span2D<double>)>& solve) {
  const std::size_t m = b.cols();
  const std::size_t blocks =
      std::clamp<std::size_t>(m / kSolveMinBlockCols, 1, kSolveMaxBlocks);
  rt::parallel_for(0, blocks, workers, [&](std::size_t blk) {
    const std::size_t c0 = blk * m / blocks;
    const std::size_t c1 = (blk + 1) * m / blocks;
    solve(b.sub(0, c0, b.rows(), c1 - c0));
  });
}

}  // namespace

PackedOffdiag::PackedOffdiag(const SymTileMatrix& l) : nt_(l.nt()) {
  tiles_.reserve(nt_ * (nt_ - 1) / 2);
  for (std::size_t i = 1; i < nt_; ++i)
    for (std::size_t k = 0; k < i; ++k) {
      const Tile& t = l.at(i, k);
      if (t.format() == TileFormat::LowRank) {
        tiles_.emplace_back();
        continue;
      }
      dispatch(t.precision(), [&]<typename T>() {
        tiles_.emplace_back(t.matrix<T>().cview());
      });
    }
}

const la::PackedMatrix* PackedOffdiag::at(std::size_t i, std::size_t k) const {
  GSX_REQUIRE(k < i && i < nt_, "PackedOffdiag::at: not an off-diagonal tile of the factor");
  const la::PackedMatrix& a = tiles_[i * (i - 1) / 2 + k];
  return a.rows() == 0 ? nullptr : &a;
}

std::size_t PackedOffdiag::bytes() const noexcept {
  std::size_t sum = 0;
  for (const la::PackedMatrix& a : tiles_) sum += a.bytes();
  return sum;
}

void tile_forward_solve_multi(const SymTileMatrix& l, const PackedOffdiag& packed,
                              Span2D<double> b, std::size_t workers) {
  GSX_REQUIRE(b.rows() == l.n(), "tile_forward_solve_multi: RHS rows mismatch");
  solve_columns_parallel(b, workers, [&](Span2D<double> cols) {
    const std::size_t nt = l.nt();
    for (std::size_t k = 0; k < nt; ++k) {
      auto bk = cols.sub(l.tile_offset(k), 0, l.tile_dim(k), cols.cols());
      la::ref::trsm_left(l.at(k, k).matrix<double>().cview(), bk);
      apply_offdiag_multi_batch(l, packed, k, bk, cols);
    }
  });
}

geostat::KrigingResult tile_krige_solved(const geostat::CovarianceModel& model,
                                         const SymTileMatrix& factored,
                                         const PackedOffdiag& packed,
                                         std::span<const double> y_solved,
                                         std::span<const geostat::Location> train_locs,
                                         std::span<const geostat::Location> test_locs,
                                         bool with_variance, std::size_t workers,
                                         SolveTelemetry* telemetry) {
  const std::size_t n = train_locs.size();
  const std::size_t m = test_locs.size();
  GSX_REQUIRE(factored.n() == n && y_solved.size() == n,
              "tile_krige_solved: size mismatch");
  GSX_REQUIRE(m > 0, "tile_krige_solved: no test locations");
  const std::uint64_t req = telemetry != nullptr ? telemetry->ctx.request_id : 0;
  GSX_FLIGHT(obs::EventKind::SolveBegin, req, n, m, 0.0);

  // W = L^{-1} Sigma_nm through the tile factor. Assembly fills one block
  // of test columns per worker; the solve parallelizes over independent
  // column blocks.
  const double t_assemble0 = obs::now_seconds();
  la::Matrix<double> w(n, m);
  const std::size_t fill_blocks = std::min(m, std::max<std::size_t>(workers, 1));
  rt::parallel_for(0, fill_blocks, workers, [&](std::size_t blk) {
    const std::size_t c0 = blk * m / fill_blocks;
    const std::size_t c1 = (blk + 1) * m / fill_blocks;
    model.fill(train_locs, test_locs.subspan(c0, c1 - c0), w.view().sub(0, c0, n, c1 - c0));
  });
  const double t_solve0 = obs::now_seconds();
  if (telemetry != nullptr) telemetry->assemble_seconds = t_solve0 - t_assemble0;
  const obs::ScopedPhase phase(obs::Phase::Krige);
  obs::add_flops(obs::KernelOp::Krige, Precision::FP64,
                 obs::trsm_flops(m, n) + obs::gemm_flops(m, 1, n));
  geostat::KrigingResult out;
  out.mean.assign(m, 0.0);
  {
    const obs::KernelTimer timer(obs::KernelOp::Krige, Precision::FP64);
    tile_forward_solve_multi(factored, packed, w.view(), workers);
    la::gemv<double>(la::Trans::Trans, 1.0, w.cview(), y_solved.data(), 0.0,
                     out.mean.data());
  }

  if (with_variance) {
    out.variance.assign(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      const double smm = model(test_locs[j], test_locs[j]);
      double wnorm = 0.0;
      for (std::size_t i = 0; i < n; ++i) wnorm += w(i, j) * w(i, j);
      // At a training location the two terms cancel exactly in exact
      // arithmetic, so rounding leaves about half of them just below zero.
      out.variance[j] = std::max(0.0, smm - wnorm);
    }
  }
  const double t_end = obs::now_seconds();
  if (telemetry != nullptr) telemetry->solve_seconds = t_end - t_solve0;
  GSX_FLIGHT(obs::EventKind::SolveEnd, req, n, m, t_end - t_solve0);

  // A factor corrupted on disk or a demotion-overflowed tile turns the solve
  // into Inf/NaN without any BLAS call failing; catch it here so serving
  // fails loudly (and with forensics) instead of shipping garbage.
  std::size_t bad = 0;
  for (const double v : out.mean)
    if (!std::isfinite(v)) ++bad;
  if (bad > 0) {
    if (obs::health_enabled()) obs::record_nonfinite("krige", -1, -1, bad);
    GSX_FLIGHT(obs::EventKind::NumericalSentinel, req, bad, 0, 0.0);
    NumericalContext ctx;
    ctx.rule = "krige_solve";
    throw NumericalError("tile_krige_solved: " + std::to_string(bad) +
                             " non-finite prediction mean(s)" +
                             (req != 0 ? " (request r-" + std::to_string(req) + ")"
                                       : std::string{}),
                         ctx);
  }
  return out;
}

geostat::KrigingResult tile_krige(const geostat::CovarianceModel& model,
                                  const SymTileMatrix& factored,
                                  std::span<const geostat::Location> train_locs,
                                  std::span<const double> z_train,
                                  std::span<const geostat::Location> test_locs,
                                  bool with_variance, std::size_t workers) {
  GSX_REQUIRE(z_train.size() == train_locs.size(), "tile_krige: size mismatch");
  obs::add_flops(obs::KernelOp::Krige, Precision::FP64, obs::trsm_flops(1, factored.n()));
  std::vector<double> y(z_train.begin(), z_train.end());
  {
    const obs::KernelTimer timer(obs::KernelOp::Krige, Precision::FP64);
    tile_forward_solve(factored, y);
  }
  return tile_krige_solved(model, factored, PackedOffdiag(factored), y, train_locs, test_locs,
                           with_variance, workers);
}

}  // namespace gsx::cholesky
