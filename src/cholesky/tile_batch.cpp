#include "cholesky/tile_batch.hpp"

namespace gsx::cholesky {

using tile::SymTileMatrix;
using tile::Tile;
using tile::TileFormat;

namespace {

/// One precision-uniform slice of a panel column's trailing updates. All
/// outputs share (rows, cols); a ragged last tile row lands in its own group
/// (batched kernels require uniform shapes).
struct Group {
  Precision p = Precision::FP64;
  std::size_t rows = 0;
  std::vector<DenseUpdate> items;
};

}  // namespace

void gemm_tile_batch(SymTileMatrix& a, std::size_t k, std::size_t n,
                     const std::vector<std::size_t>& ms, double abs_tol) {
  const Tile& ank = a.at(n, k);
  const bool ank_lr = ank.format() == TileFormat::LowRank;
  std::vector<Group> groups;
  for (const std::size_t m : ms) {
    const Tile& amk = a.at(m, k);
    Tile& amn = a.at(m, n);
    // Updates involving a low-rank tile keep the per-op LR algebra; each
    // output tile is touched exactly once per k, so interleaving per-op and
    // batched items cannot change any result.
    if (ank_lr || amk.format() == TileFormat::LowRank ||
        amn.format() == TileFormat::LowRank) {
      gemm_tile(amk, ank, amn, abs_tol);
      continue;
    }
    Group* g = nullptr;
    for (Group& cand : groups)
      if (cand.p == amn.precision() && cand.rows == amn.rows()) {
        g = &cand;
        break;
      }
    if (g == nullptr) {
      groups.push_back({amn.precision(), amn.rows(), {}});
      g = &groups.back();
    }
    g->items.push_back({&amk, &amn});
  }
  for (const Group& g : groups) gemm_dense_batch(ank, g.items);
}

}  // namespace gsx::cholesky
