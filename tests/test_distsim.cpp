// Discrete-event simulator of the distributed tile Cholesky.
#include <gtest/gtest.h>

#include <cmath>

#include "distsim/distsim.hpp"

namespace gsx::distsim {
namespace {

const perfmodel::KernelModel& model64() {
  static const perfmodel::KernelModel m = perfmodel::KernelModel::theoretical(64);
  return m;
}

NodeModel simple_node(std::size_t cores = 4) {
  NodeModel n;
  n.cores = cores;
  n.kernels = &model64();
  return n;
}

TEST(ProcessGridTest, NearSquareFactorizations) {
  EXPECT_EQ(ProcessGrid::near_square(1).nodes(), 1u);
  const auto g16 = ProcessGrid::near_square(16);
  EXPECT_EQ(g16.p, 4u);
  EXPECT_EQ(g16.q, 4u);
  const auto g12 = ProcessGrid::near_square(12);
  EXPECT_EQ(g12.p * g12.q, 12u);
  EXPECT_LE(g12.p, g12.q);
  const auto g7 = ProcessGrid::near_square(7);  // prime: 1 x 7
  EXPECT_EQ(g7.p, 1u);
  EXPECT_EQ(g7.q, 7u);
}

TEST(ProcessGridTest, BlockCyclicOwnership) {
  const ProcessGrid g{2, 3};
  EXPECT_EQ(g.owner(0, 0), 0u);
  EXPECT_EQ(g.owner(0, 1), 1u);
  EXPECT_EQ(g.owner(1, 0), 3u);
  EXPECT_EQ(g.owner(2, 3), 0u);  // wraps both ways
  // Every node owns some tile of an 6x6 grid.
  std::vector<bool> seen(6, false);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j <= i; ++j) seen[g.owner(i, j)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(TileStructureTest, SyntheticRankProfile) {
  const auto s = TileStructure::synthetic(16, 64, 2, 0.4, 2, true);
  // Band tiles dense; far tiles low-rank with decaying rank.
  EXPECT_FALSE(s.at(0, 0).lowrank);
  EXPECT_FALSE(s.at(1, 0).lowrank);
  EXPECT_TRUE(s.at(4, 0).lowrank);
  EXPECT_GE(s.at(4, 0).rank, s.at(10, 0).rank);
  EXPECT_GE(s.at(10, 0).rank, 2u);
  // Diagonal FP64; off-band mixed precision kicks in.
  EXPECT_EQ(s.at(0, 0).precision, Precision::FP64);
  EXPECT_EQ(s.at(1, 0).precision, Precision::FP32);
  EXPECT_EQ(s.at(8, 0).precision, Precision::FP32);
}

TEST(TileStructureTest, TileBytes) {
  auto s = TileStructure::synthetic(8, 64, 1, 0.5, 2, false);
  EXPECT_EQ(s.tile_bytes(0, 0), 64u * 64u * 8u);  // dense FP64
  const auto& lr = s.at(5, 0);
  EXPECT_EQ(s.tile_bytes(5, 0), 2u * 64u * lr.rank * 8u);
}

TEST(Simulate, SingleNodeMatchesSerialCostSum) {
  // One node, one core: makespan == total compute (no comm, no overlap).
  const auto s = TileStructure::synthetic(8, 64, 8, 0.5, 2, false);  // all dense
  const SimResult r =
      simulate_cholesky(s, ProcessGrid{1, 1}, simple_node(1), LinkModel{});
  EXPECT_NEAR(r.makespan_seconds, r.total_compute_seconds, 1e-12);
  EXPECT_EQ(r.remote_transfers, 0u);
  const std::size_t nt = 8;
  EXPECT_EQ(r.num_tasks, nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6);
}

TEST(Simulate, MoreNodesNeverSlower) {
  const auto s = TileStructure::synthetic(24, 64, 2, 0.3, 4, true);
  const NodeModel node = simple_node(2);
  const LinkModel fast_link{0.0, 1e15};  // effectively free communication
  double prev = 1e300;
  for (std::size_t nodes : {1u, 4u, 16u}) {
    const SimResult r =
        simulate_cholesky(s, ProcessGrid::near_square(nodes), node, fast_link);
    EXPECT_LE(r.makespan_seconds, prev * 1.0001) << nodes;
    prev = r.makespan_seconds;
  }
}

TEST(Simulate, StrongScalingSaturates) {
  // Past some node count the critical path dominates: speedup flattens
  // (the paper's Fig. 11 observation at 48K nodes).
  const auto s = TileStructure::synthetic(16, 64, 2, 0.3, 4, false);
  const NodeModel node = simple_node(2);
  const SimResult r1 = simulate_cholesky(s, ProcessGrid::near_square(1), node, LinkModel{});
  const SimResult r64 =
      simulate_cholesky(s, ProcessGrid::near_square(64), node, LinkModel{});
  const SimResult r256 =
      simulate_cholesky(s, ProcessGrid::near_square(256), node, LinkModel{});
  const double s64 = r1.makespan_seconds / r64.makespan_seconds;
  const double s256 = r1.makespan_seconds / r256.makespan_seconds;
  EXPECT_GT(s64, 1.0);
  EXPECT_LT(s256 / s64, 2.0) << "scaling must flatten well below 4x";
}

TEST(Simulate, CommunicationChargesRemoteReadsOnce) {
  const auto s = TileStructure::synthetic(8, 64, 8, 0.5, 2, false);
  const ProcessGrid g{2, 2};
  const SimResult r = simulate_cholesky(s, g, simple_node(2), LinkModel{});
  EXPECT_GT(r.remote_transfers, 0u);
  EXPECT_GT(r.comm_bytes, 0u);
  // Caching bounds transfers: at most one per (tile version, destination).
  // Tile (m,k) is written by 1 trsm and read by syrk/gemms on <= 4 nodes.
  EXPECT_LT(r.remote_transfers, r.num_tasks * 2);
}

TEST(Simulate, SlowLinksHurtMakespan) {
  const auto s = TileStructure::synthetic(16, 64, 2, 0.3, 4, false);
  const NodeModel node = simple_node(2);
  const ProcessGrid g = ProcessGrid::near_square(16);
  const SimResult fast = simulate_cholesky(s, g, node, LinkModel{1e-9, 1e14});
  const SimResult slow = simulate_cholesky(s, g, node, LinkModel{1e-3, 1e6});
  EXPECT_GT(slow.makespan_seconds, fast.makespan_seconds * 1.5);
}

TEST(Simulate, TlrStructureBeatsDenseAtScale) {
  // The paper's core claim, at the simulator level: the TLR structure's
  // makespan beats dense FP64 for weakly-correlated (fast rank decay)
  // matrices on many nodes.
  // Fast rank decay keeps LR tiles below the TLR/dense crossover (the
  // structure-aware decision would revert higher-rank tiles to dense).
  const std::size_t nt = 32;
  const auto dense = TileStructure::synthetic(nt, 64, nt, 0.0, 64, false);
  const auto tlr = TileStructure::synthetic(nt, 64, 2, 1.2, 2, true);
  const NodeModel node = simple_node(4);
  const ProcessGrid g = ProcessGrid::near_square(16);
  const SimResult rd = simulate_cholesky(dense, g, node, LinkModel{});
  const SimResult rt = simulate_cholesky(tlr, g, node, LinkModel{});
  EXPECT_LT(rt.makespan_seconds, rd.makespan_seconds);
  EXPECT_LT(rt.comm_bytes, rd.comm_bytes) << "LR tiles move fewer bytes";
}

TEST(Simulate, EfficiencyBounded) {
  const auto s = TileStructure::synthetic(16, 64, 2, 0.3, 4, false);
  const NodeModel node = simple_node(2);
  const ProcessGrid g = ProcessGrid::near_square(4);
  const SimResult r = simulate_cholesky(s, g, node, LinkModel{});
  const double eff = r.efficiency(g, node);
  EXPECT_GT(eff, 0.0);
  EXPECT_LE(eff, 1.0);
}

TEST(Simulate, MismatchedKernelTileSizeThrows) {
  const auto s = TileStructure::synthetic(8, 128, 2, 0.3, 4, false);
  NodeModel node = simple_node(2);  // kernels built for ts = 64
  EXPECT_THROW(simulate_cholesky(s, ProcessGrid{1, 1}, node, LinkModel{}),
               InvalidArgument);
}

}  // namespace
}  // namespace gsx::distsim
