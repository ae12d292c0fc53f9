#include "cholesky/factorize.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "cholesky/tile_batch.hpp"
#include "cholesky/tile_kernels.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/convert.hpp"
#include "obs/flops.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace gsx::cholesky {

using rt::Access;
using rt::DatumId;
using tile::SymTileMatrix;
using tile::Tile;
using tile::TileFormat;

namespace {

DatumId tid(const SymTileMatrix& a, std::size_t i, std::size_t j) {
  return DatumId::from_pointer(&a.at(i, j));
}

/// Submit and run the Algorithm-1 DAG. The tile kernels choose their dense
/// or low-rank routine from the formats they receive; `abs_tol` bounds the
/// rounding of low-rank accumulations. Each panel column's trailing updates
/// are submitted as one task per <= kGemmBatchMax chunk so all GEMMs sharing
/// the packed A(n,k) operand execute as one batched kernel call (per-tile
/// dependencies and results are unchanged — each output tile is still
/// read-modify-written exactly once per k, in k order).
FactorReport run_cholesky_dag(SymTileMatrix& a, double abs_tol, const FactorOptions& opts) {
  const std::size_t nt = a.nt();
  rt::TaskGraph graph;

  std::atomic<int> info{0};

  for (std::size_t k = 0; k < nt; ++k) {
    const int base = 3 * static_cast<int>(nt - k);
    graph.submit(
        "potrf", {{tid(a, k, k), Access::ReadWrite}},
        [&a, &info, k, rule = opts.rule] {
          const int local = potrf_tile(a.at(k, k));
          if (local != 0) {
            int expected = 0;
            const int pivot = static_cast<int>(k * a.tile_size()) + local;
            info.compare_exchange_strong(expected, pivot);
            NumericalContext ctx;
            ctx.tile_i = ctx.tile_j = static_cast<long>(k);
            ctx.pivot = pivot;
            ctx.precision = a.at(k, k).precision();
            ctx.tile_norm = a.at(k, k).frobenius();
            ctx.rule = precision_rule_name(rule);
            throw NumericalError("tile Cholesky: non-SPD pivot in diagonal tile " +
                                     std::to_string(k),
                                 std::move(ctx));
          }
        },
        base + 2);

    for (std::size_t m = k + 1; m < nt; ++m) {
      graph.submit("trsm", {{tid(a, k, k), Access::Read}, {tid(a, m, k), Access::ReadWrite}},
                   [&a, m, k] { trsm_tile(a.at(k, k), a.at(m, k)); }, base + 1);
    }
    for (std::size_t m = k + 1; m < nt; ++m) {
      graph.submit("syrk", {{tid(a, m, k), Access::Read}, {tid(a, m, m), Access::ReadWrite}},
                   [&a, m, k] { syrk_tile(a.at(m, k), a.at(m, m)); }, base);
    }
    for (std::size_t n = k + 1; n < nt; ++n) {
      for (std::size_t m0 = n + 1; m0 < nt; m0 += kGemmBatchMax) {
        const std::size_t m1 = std::min(nt, m0 + kGemmBatchMax);
        std::vector<rt::Dep> deps;
        deps.reserve(2 * (m1 - m0) + 1);
        deps.push_back({tid(a, n, k), Access::Read});
        std::vector<std::size_t> ms;
        ms.reserve(m1 - m0);
        for (std::size_t m = m0; m < m1; ++m) {
          ms.push_back(m);
          deps.push_back({tid(a, m, k), Access::Read});
          deps.push_back({tid(a, m, n), Access::ReadWrite});
        }
        graph.submit("gemm", deps,
                     [&a, ms = std::move(ms), n, k, abs_tol] {
                       gemm_tile_batch(a, k, n, ms, abs_tol);
                     },
                     base);
      }
    }
  }

  FactorReport report;
  Timer t;
  try {
    const obs::ScopedPhase phase(obs::Phase::Factorize);
    graph.run(opts.workers);
  } catch (const NumericalError& e) {
    // info carries the failing pivot; callers treat info != 0 as soft
    // failure (the MLE optimizer backs away from the parameter point).
    GSX_REQUIRE(info.load() != 0, "tile Cholesky: abort without pivot info");
    const auto k = static_cast<std::size_t>(info.load() - 1) / a.tile_size();
    report.failed_tile = static_cast<long>(k);
    obs::log_error("cholesky", "non-SPD pivot, factorization aborted",
                   {obs::lf("tile", static_cast<std::uint64_t>(k)),
                    obs::lf("pivot", static_cast<std::int64_t>(info.load())),
                    obs::lf("rule", precision_rule_name(opts.rule))});
    if (obs::health_enabled()) {
      obs::FailureRecord fr;
      fr.what = e.what();
      fr.tile_i = fr.tile_j = static_cast<long>(k);
      fr.pivot = info.load();
      fr.rule = precision_rule_name(opts.rule);
      if (e.has_context()) {
        fr.precision = e.context().precision;
        fr.tile_norm = e.context().tile_norm;
      } else {
        fr.precision = a.at(k, k).precision();
        fr.tile_norm = a.at(k, k).frobenius();
      }
      auto add_neighbor = [&](std::size_t i, std::size_t j) {
        if (i >= nt || j > i) return;
        const Tile& t = a.at(i, j);
        fr.neighbors.push_back({static_cast<std::uint32_t>(i),
                                static_cast<std::uint32_t>(j), t.decision_code(),
                                static_cast<std::uint32_t>(t.rank()), t.precision()});
      };
      if (k >= 1) {
        add_neighbor(k - 1, k - 1);
        add_neighbor(k, k - 1);
      }
      add_neighbor(k + 1, k);
      add_neighbor(k + 1, k + 1);
      obs::record_failure(std::move(fr));
    }
  }
  report.seconds = t.seconds();
  report.info = info.load();
  report.graph = graph.stats();
  return report;
}

}  // namespace

FactorReport tile_cholesky_dense(SymTileMatrix& a, const FactorOptions& opts) {
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i)
      GSX_REQUIRE(a.at(i, j).format() == TileFormat::Dense,
                  "tile_cholesky_dense: low-rank tile (use tile_cholesky_tlr)");
  return run_cholesky_dag(a, 0.0, opts);
}

FactorReport tile_cholesky_tlr(SymTileMatrix& a, double abs_tol, const FactorOptions& opts) {
  return run_cholesky_dag(a, abs_tol, opts);
}

void compress_tile(SymTileMatrix& a, std::size_t i, std::size_t j, double global_norm,
                   const TlrCompressOptions& opts) {
  GSX_REQUIRE(opts.tol > 0, "compress_tile: tolerance must be positive");
  Tile& t = a.at(i, j);
  GSX_REQUIRE(t.format() == TileFormat::Dense, "compress_tile: tile already compressed");
  const std::size_t nt = a.nt();
  const double tile_norm = t.frobenius();
  const DenseOperand<double> full(t);  // zero-copy for an FP64 tile
  const bool audit = obs::health_enabled();
  if (audit) {
    // Compressing a tile with NaN/Inf silently poisons its factors; flag
    // the input here, where the tile coordinate is still known.
    const std::size_t bad = t.nonfinite_count();
    if (bad > 0) {
      obs::record_nonfinite("compress", static_cast<long>(i), static_cast<long>(j), bad);
      obs::log_warn("compress", "non-finite values in compression input",
                    {obs::lf("tile_i", static_cast<std::uint64_t>(i)),
                     obs::lf("tile_j", static_cast<std::uint64_t>(j)),
                     obs::lf("count", static_cast<std::uint64_t>(bad))});
    }
  }
  tlr::Compressed comp = tlr::compress_svd(full.view(), opts.tol);

  // Structure-aware decision: rank too high for the TLR kernel to win; keep
  // the tile dense (it re-joins the band, cf. Fig. 3(a->b)). The cap is
  // measured against the tile side, so thin ragged tiles share it; a tile
  // also stays dense unless its factors store fewer entries than it does.
  const std::size_t rank_cap = (opts.max_rank > 0) ? opts.max_rank : a.tile_size() / 2;
  if (comp.rank() > rank_cap ||
      comp.rank() * (t.rows() + t.cols()) >= t.rows() * t.cols())
    return;

  // Precision-aware decision for the LR factors (FP64 vs FP32 storage).
  bool use_fp32 = false;
  if (opts.lr_fp32) {
    const Precision p = frobenius_precision(tile_norm, global_norm, nt, opts.eps_target,
                                            /*allow_fp16=*/false, t.rows() * t.cols());
    use_fp32 = (p != Precision::FP64);
  }
  const std::size_t k = comp.rank();
  // Rank-revealing cost ~ two (m x n) * (n x k) products.
  obs::add_flops(obs::KernelOp::Compress, Precision::FP64,
                 2 * obs::gemm_flops(t.rows(), t.cols(), k));
  if (audit) {
    obs::TlrRecord tr;
    tr.i = static_cast<std::uint32_t>(i);
    tr.j = static_cast<std::uint32_t>(j);
    tr.rank = static_cast<std::uint32_t>(k);
    tr.tol = opts.tol;
    tr.observed_err = tlr::lowrank_error(full.view(), comp.u, comp.v);
    tr.fp32 = use_fp32;
    obs::record_tlr(tr);
  }
  if (use_fp32) {
    la::Matrix<float> u32(comp.u.rows(), k), v32(comp.v.rows(), k);
    la::convert(comp.u.cview(), u32.view());
    la::convert(comp.v.cview(), v32.view());
    t = Tile::lowrank(std::move(u32), std::move(v32));
  } else {
    t = Tile::lowrank(std::move(comp.u), std::move(comp.v));
  }
}

CompressStats compress_offband(SymTileMatrix& a, const TlrCompressOptions& opts,
                               std::size_t workers) {
  GSX_REQUIRE(opts.band_size >= 1, "compress_offband: band must keep the diagonal dense");
  const std::size_t nt = a.nt();

  const obs::ScopedPhase obs_phase(obs::Phase::Compress);
  CompressStats stats;
  stats.bytes_before = a.footprint_bytes();

  // Global norm for the FP32-storage decision on LR factors.
  const double global_norm = opts.lr_fp32 ? a.frobenius_norm(workers) : 0.0;

  // Collect compressible coordinates.
  std::vector<std::pair<std::size_t, std::size_t>> coords;
  for (std::size_t j = 0; j < nt; ++j)
    for (std::size_t i = j; i < nt; ++i)
      if (i - j >= opts.band_size) coords.emplace_back(i, j);

  rt::parallel_for(0, coords.size(), workers, [&](std::size_t c) {
    compress_tile(a, coords[c].first, coords[c].second, global_norm, opts);
  });

  std::size_t rank_sum = 0;
  for (const auto& [i, j] : coords) {
    const Tile& t = a.at(i, j);
    if (t.format() != TileFormat::LowRank) {
      ++stats.reverted_tiles;
      continue;
    }
    ++stats.lr_tiles;
    if (t.precision() == Precision::FP32) ++stats.lr_fp32_tiles;
    rank_sum += t.rank();
    stats.max_rank = std::max(stats.max_rank, t.rank());
  }
  stats.avg_rank = stats.lr_tiles > 0 ? static_cast<double>(rank_sum) /
                                            static_cast<double>(stats.lr_tiles)
                                      : 0.0;
  stats.dense_tiles = nt * (nt + 1) / 2 - stats.lr_tiles;
  stats.bytes_after = a.footprint_bytes();
  return stats;
}

}  // namespace gsx::cholesky
