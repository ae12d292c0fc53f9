#include "distsim/distsim.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>

#include "common/error.hpp"

namespace gsx::distsim {

TileStructure::TileStructure(std::size_t nt, std::size_t tile_size)
    : nt_(nt), ts_(tile_size), tiles_(nt * (nt + 1) / 2) {
  GSX_REQUIRE(nt >= 1 && tile_size >= 1, "TileStructure: empty structure");
}

TileInfo& TileStructure::at(std::size_t i, std::size_t j) {
  GSX_REQUIRE(i < nt_ && j <= i, "TileStructure: need i >= j");
  return tiles_[j * nt_ - j * (j - 1) / 2 + (i - j)];
}

const TileInfo& TileStructure::at(std::size_t i, std::size_t j) const {
  GSX_REQUIRE(i < nt_ && j <= i, "TileStructure: need i >= j");
  return tiles_[j * nt_ - j * (j - 1) / 2 + (i - j)];
}

std::size_t TileStructure::tile_bytes(std::size_t i, std::size_t j) const {
  const TileInfo& t = at(i, j);
  const std::size_t elem = bytes_of(t.precision);
  if (t.lowrank) return 2 * ts_ * t.rank * elem;
  return ts_ * ts_ * elem;
}

TileStructure TileStructure::synthetic(std::size_t nt, std::size_t tile_size,
                                       std::size_t band, double rank_decay,
                                       std::size_t min_rank, bool mixed_precision) {
  GSX_REQUIRE(band >= 1, "TileStructure::synthetic: band must include the diagonal");
  TileStructure s(nt, tile_size);
  for (std::size_t j = 0; j < nt; ++j) {
    for (std::size_t i = j; i < nt; ++i) {
      const std::size_t d = i - j;
      TileInfo& info = s.at(i, j);
      if (d < band) {
        info.lowrank = false;
        info.rank = tile_size;
        if (!mixed_precision || d == 0) {
          info.precision = Precision::FP64;
        } else {
          info.precision = Precision::FP32;
        }
      } else {
        info.lowrank = true;
        const double r = static_cast<double>(tile_size) *
                         std::exp(-rank_decay * static_cast<double>(d));
        info.rank = std::max<std::size_t>(min_rank, static_cast<std::size_t>(r));
        info.rank = std::min(info.rank, tile_size / 2);
        info.precision =
            (mixed_precision && d >= 2 * band) ? Precision::FP32 : Precision::FP64;
      }
    }
  }
  return s;
}

namespace {

/// Per-tile dependency clock plus remote-availability cache (a PaRSEC-like
/// runtime keeps a received copy until the next write invalidates it).
struct TileClock {
  double last_write_end = 0.0;
  double max_read_end = 0.0;
  std::unordered_map<std::size_t, double> cached_at;  // node -> availability
};

/// One node's cores as a min-heap of next-free times.
class NodeCores {
 public:
  explicit NodeCores(std::size_t cores) {
    for (std::size_t c = 0; c < cores; ++c) free_.push(0.0);
  }

  /// Run a task that becomes ready at `ready` and costs `cost`; returns its
  /// completion time.
  double run(double ready, double cost) {
    const double core_free = free_.top();
    free_.pop();
    const double start = std::max(ready, core_free);
    const double end = start + cost;
    free_.push(end);
    return end;
  }

 private:
  std::priority_queue<double, std::vector<double>, std::greater<>> free_;
};

/// Kernel cost model derived from the calibrated per-core GEMM timings by
/// flop ratios (GEMM = 2 ts^3 flops is the unit).
struct Costs {
  const perfmodel::KernelModel* k = nullptr;
  std::size_t ts = 0;

  [[nodiscard]] double dense_gemm(Precision p) const { return k->dense_gemm_seconds(p); }
  [[nodiscard]] double potrf() const {
    return dense_gemm(Precision::FP64) / 6.0;  // ts^3/3 over 2 ts^3
  }
  [[nodiscard]] double dense_trsm(Precision p) const { return dense_gemm(p) / 2.0; }
  [[nodiscard]] double dense_syrk() const { return dense_gemm(Precision::FP64) / 2.0; }
  [[nodiscard]] double lr_trsm(std::size_t rank) const {
    // V := L^{-1} V: ts^2 * rank flops.
    return dense_gemm(Precision::FP64) * static_cast<double>(rank) /
           (2.0 * static_cast<double>(ts));
  }
  [[nodiscard]] double lr_syrk(std::size_t rank) const {
    // ~4 ts k^2 + 2 ts^2 k flops over 2 ts^3.
    const double kk = static_cast<double>(rank);
    const double t = static_cast<double>(ts);
    return dense_gemm(Precision::FP64) * (4.0 * t * kk * kk + 2.0 * t * t * kk) /
           (2.0 * t * t * t);
  }
  [[nodiscard]] double lr_gemm(std::size_t rank) const { return k->tlr_gemm_seconds(rank); }
  [[nodiscard]] double mixed_gemm_dense_out(std::size_t rank, Precision p) const {
    // C(dense) -= LR product: ~2 ts^2 k flops.
    return dense_gemm(p) * static_cast<double>(rank) / static_cast<double>(ts);
  }
};

}  // namespace

SimResult simulate_cholesky(const TileStructure& a, const ProcessGrid& grid,
                            const NodeModel& node, const LinkModel& link) {
  GSX_REQUIRE(node.kernels != nullptr, "simulate_cholesky: node model needs kernels");
  GSX_REQUIRE(node.kernels->tile_size() == a.tile_size(),
              "simulate_cholesky: kernel model tile size mismatch");
  const std::size_t nt = a.nt();
  const Costs costs{node.kernels, a.tile_size()};

  std::vector<TileClock> clocks(nt * (nt + 1) / 2);
  auto clock = [&](std::size_t i, std::size_t j) -> TileClock& {
    return clocks[j * nt - j * (j - 1) / 2 + (i - j)];
  };
  std::vector<NodeCores> cores(grid.nodes(), NodeCores(node.cores));

  SimResult result;

  // Read an operand from `exec_node`; returns availability time, charging a
  // transfer when the tile lives elsewhere (cached per destination until the
  // next write).
  auto read_operand = [&](std::size_t i, std::size_t j, std::size_t exec_node) {
    TileClock& c = clock(i, j);
    const std::size_t owner = grid.owner(i, j);
    if (owner == exec_node) return c.last_write_end;
    auto [it, inserted] = c.cached_at.try_emplace(exec_node, 0.0);
    if (inserted) {
      const double xfer = link.transfer_seconds(a.tile_bytes(i, j));
      it->second = c.last_write_end + xfer;
      ++result.remote_transfers;
      result.comm_bytes += a.tile_bytes(i, j);
      result.total_comm_seconds += xfer;
    }
    return it->second;
  };

  auto execute = [&](std::size_t out_i, std::size_t out_j, double deps_ready,
                     double cost) {
    TileClock& out = clock(out_i, out_j);
    const std::size_t exec_node = grid.owner(out_i, out_j);
    const double ready = std::max({deps_ready, out.last_write_end, out.max_read_end});
    const double end = cores[exec_node].run(ready, cost);
    out.last_write_end = end;
    out.max_read_end = 0.0;
    out.cached_at.clear();
    result.total_compute_seconds += cost;
    ++result.num_tasks;
    return end;
  };

  auto note_read = [&](std::size_t i, std::size_t j, double end) {
    TileClock& c = clock(i, j);
    c.max_read_end = std::max(c.max_read_end, end);
  };

  for (std::size_t k = 0; k < nt; ++k) {
    execute(k, k, clock(k, k).last_write_end, costs.potrf());

    for (std::size_t m = k + 1; m < nt; ++m) {
      const std::size_t exec_node = grid.owner(m, k);
      const double lkk_ready = read_operand(k, k, exec_node);
      const TileInfo& t = a.at(m, k);
      const double cost = t.lowrank ? costs.lr_trsm(t.rank) : costs.dense_trsm(t.precision);
      const double end = execute(m, k, lkk_ready, cost);
      note_read(k, k, end);
    }

    for (std::size_t m = k + 1; m < nt; ++m) {
      const TileInfo& panel_m = a.at(m, k);
      {
        const std::size_t exec_node = grid.owner(m, m);
        const double ready = read_operand(m, k, exec_node);
        const double cost =
            panel_m.lowrank ? costs.lr_syrk(panel_m.rank) : costs.dense_syrk();
        const double end = execute(m, m, ready, cost);
        note_read(m, k, end);
      }
      for (std::size_t n = k + 1; n < m; ++n) {
        const TileInfo& panel_n = a.at(n, k);
        const TileInfo& out = a.at(m, n);
        const std::size_t exec_node = grid.owner(m, n);
        const double ready =
            std::max(read_operand(m, k, exec_node), read_operand(n, k, exec_node));
        double cost;
        if (out.lowrank) {
          const std::size_t r =
              std::max({out.rank, panel_m.lowrank ? panel_m.rank : out.rank,
                        panel_n.lowrank ? panel_n.rank : out.rank});
          cost = costs.lr_gemm(r);
        } else if (panel_m.lowrank || panel_n.lowrank) {
          const std::size_t r = std::min(panel_m.lowrank ? panel_m.rank : a.tile_size(),
                                         panel_n.lowrank ? panel_n.rank : a.tile_size());
          cost = costs.mixed_gemm_dense_out(r, out.precision);
        } else {
          cost = costs.dense_gemm(out.precision);
        }
        const double end = execute(m, n, ready, cost);
        note_read(m, k, end);
        note_read(n, k, end);
      }
    }
  }

  double makespan = 0.0;
  for (auto& c : clocks) makespan = std::max(makespan, c.last_write_end);
  result.makespan_seconds = makespan;
  return result;
}

}  // namespace gsx::distsim
