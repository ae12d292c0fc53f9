// Tile ownership for distributed execution: 2D block-cyclic placement.
//
// This header is the single source of truth for "which process owns tile
// (i, j)" — the simulator (src/distsim) and the real multi-process backend
// (src/dist) both consume it, so a simulated placement and a real run of the
// same problem put every tile on the same rank. Header-only: distsim must
// not link the transport layer to share the placement math.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace gsx::dist {

/// 2D block-cyclic process grid: tile (i, j) lives on rank
/// (i mod p) * q + (j mod q) — the layout PaRSEC/DPLASMA/ScaLAPACK use.
struct ProcessGrid {
  std::size_t p = 1;
  std::size_t q = 1;

  [[nodiscard]] std::size_t nodes() const noexcept { return p * q; }
  [[nodiscard]] std::size_t owner(std::size_t i, std::size_t j) const noexcept {
    return (i % p) * q + (j % q);
  }

  /// Near-square grid for a node count (the usual choice).
  static ProcessGrid near_square(std::size_t nodes) {
    GSX_REQUIRE(nodes >= 1, "ProcessGrid: need at least one node");
    std::size_t p = static_cast<std::size_t>(std::sqrt(static_cast<double>(nodes)));
    while (p > 1 && nodes % p != 0) --p;
    return ProcessGrid{p, nodes / p};
  }
};

/// Stored-triangle coordinates (i >= j) owned by `rank`, in the column-major
/// traversal order the tile algorithms use. Deterministic: every process
/// computes the same partition without communication.
inline std::vector<std::pair<std::size_t, std::size_t>> owned_tiles(
    const ProcessGrid& grid, std::size_t rank, std::size_t nt) {
  std::vector<std::pair<std::size_t, std::size_t>> coords;
  for (std::size_t j = 0; j < nt; ++j)
    for (std::size_t i = j; i < nt; ++i)
      if (grid.owner(i, j) == rank) coords.emplace_back(i, j);
  return coords;
}

}  // namespace gsx::dist
