// Discrete-event simulation of the distributed tile Cholesky.
//
// The paper's headline numbers come from up to 48,384 Fugaku nodes — a scale
// no single machine reproduces. Per DESIGN.md's substitution policy, this
// module *simulates* the distributed execution: the exact task DAG of the
// tile Cholesky (Algorithm 1 + TLR variants), a 2D block-cyclic tile
// distribution (the layout PaRSEC/DPLASMA use), a node model calibrated on
// the real kernel timings (perfmodel::KernelModel), and a latency/bandwidth
// link model standing in for TofuD. The simulator replays the DAG in
// dependency order, charging compute time on the owner node's cores and
// transfer time for every remote operand — producing makespans whose shape
// across node counts mirrors the paper's strong-scaling figures, including
// the flattening when the DAG runs out of concurrency (Fig. 11).
#pragma once

#include <cstddef>
#include <vector>

#include "common/precision.hpp"
#include "dist/placement.hpp"
#include "perfmodel/kernel_model.hpp"

namespace gsx::distsim {

/// 2D block-cyclic process grid, shared verbatim with the real multi-process
/// backend (src/dist): a simulated placement and a real run of the same
/// problem put every tile on the same rank.
using ProcessGrid = dist::ProcessGrid;

/// Compute capability of one node.
struct NodeModel {
  std::size_t cores = 48;              ///< A64FX: 48 compute cores
  /// Per-core kernel model (tile-size specific), shared by all nodes.
  const perfmodel::KernelModel* kernels = nullptr;
};

/// Interconnect model: transfer time = latency + bytes / bandwidth.
struct LinkModel {
  double latency_seconds = 2.0e-6;       ///< TofuD-like put latency
  double bandwidth_bytes_per_s = 6.8e9;  ///< per-link injection bandwidth

  [[nodiscard]] double transfer_seconds(std::size_t bytes) const noexcept {
    return latency_seconds + static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
};

struct SimResult {
  double makespan_seconds = 0.0;
  double total_compute_seconds = 0.0;   ///< sum of task costs
  double total_comm_seconds = 0.0;      ///< sum of charged transfer times
  std::size_t num_tasks = 0;
  std::size_t remote_transfers = 0;
  std::size_t comm_bytes = 0;
  /// Aggregate efficiency: compute / (makespan * nodes * cores).
  [[nodiscard]] double efficiency(const ProcessGrid& grid, const NodeModel& node) const {
    const double cap = makespan_seconds * static_cast<double>(grid.nodes() * node.cores);
    return cap > 0.0 ? total_compute_seconds / cap : 0.0;
  }
};

/// Per-tile structural description the simulator consumes (no payloads).
struct TileInfo {
  bool lowrank = false;
  std::size_t rank = 0;       ///< meaningful when lowrank
  Precision precision = Precision::FP64;
};

/// Structural matrix: NT x NT lower-triangular tile metadata.
class TileStructure {
 public:
  TileStructure(std::size_t nt, std::size_t tile_size);

  /// Synthesize the structure of a large problem from a rank profile:
  /// rank(sub-diagonal d) = max(min_rank, full * exp(-decay * d)), tiles
  /// within `band` of the diagonal dense; precision by the band rule.
  /// This extrapolates the measured small-problem structure to the paper's
  /// 1M-10M scales.
  static TileStructure synthetic(std::size_t nt, std::size_t tile_size, std::size_t band,
                                 double rank_decay, std::size_t min_rank,
                                 bool mixed_precision);

  [[nodiscard]] std::size_t nt() const noexcept { return nt_; }
  [[nodiscard]] std::size_t tile_size() const noexcept { return ts_; }
  [[nodiscard]] TileInfo& at(std::size_t i, std::size_t j);
  [[nodiscard]] const TileInfo& at(std::size_t i, std::size_t j) const;

  /// Bytes of one tile's payload under its current format/precision.
  [[nodiscard]] std::size_t tile_bytes(std::size_t i, std::size_t j) const;

 private:
  std::size_t nt_;
  std::size_t ts_;
  std::vector<TileInfo> tiles_;  // packed lower triangle
};

/// Simulate the distributed tile Cholesky over the structure. The DAG is
/// identical to tile_cholesky_dense/tlr; kernel costs come from the node
/// model, transfers from the link model whenever an operand tile's owner
/// differs from the task's owner (the output tile's node).
SimResult simulate_cholesky(const TileStructure& a, const ProcessGrid& grid,
                            const NodeModel& node, const LinkModel& link);

}  // namespace gsx::distsim
