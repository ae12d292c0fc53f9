// Symmetric tiled matrix, lower-triangular tile storage.
//
// The covariance matrix Sigma(theta) is symmetric positive definite; only
// tiles (i, j) with i >= j are stored. Each tile independently carries its
// (format, precision) decision, the core data structure of the paper's
// adaptive approach.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/span2d.hpp"
#include "la/matrix.hpp"
#include "tile/tile.hpp"

namespace gsx::tile {

class SymTileMatrix {
 public:
  /// n x n symmetric matrix in tiles of side `tile_size` (last tile ragged).
  SymTileMatrix(std::size_t n, std::size_t tile_size);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t tile_size() const noexcept { return ts_; }
  /// Number of tiles per dimension (NT in the paper's formulas).
  [[nodiscard]] std::size_t nt() const noexcept { return nt_; }

  /// Row/column extent of tile index i (handles the ragged last tile).
  [[nodiscard]] std::size_t tile_dim(std::size_t i) const;
  /// Global index of the first row/column covered by tile index i.
  [[nodiscard]] std::size_t tile_offset(std::size_t i) const noexcept { return i * ts_; }

  /// Tile (i, j) with i >= j.
  [[nodiscard]] Tile& at(std::size_t i, std::size_t j);
  [[nodiscard]] const Tile& at(std::size_t i, std::size_t j) const;

  /// Fills `block` with the matrix entries whose top-left one is at
  /// global row gi0, column gj0.
  using BlockFn = std::function<void(std::size_t gi0, std::size_t gj0, Span2D<double> block)>;

  /// Generate all stored tiles dense FP64 from a block functor, optionally
  /// in parallel over tiles.
  void generate(const BlockFn& fill, std::size_t num_workers = 1);

  /// Generate stored tile (i, j) dense FP64 from a block functor: the one
  /// tile path behind generate(), for callers that own only some tiles.
  void generate_tile(std::size_t i, std::size_t j, const BlockFn& fill);

  /// Frobenius norm of the full symmetric matrix, accumulated tile-by-tile
  /// (the paper stores no global copy). The tiles' norms are computed over
  /// `num_workers` threads and summed in storage order, so the value does
  /// not depend on `num_workers`.
  [[nodiscard]] double frobenius_norm(std::size_t num_workers = 1) const;

  /// Total payload bytes across stored tiles (the "memory footprint" of
  /// Fig. 9, counting the stored triangle).
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Footprint if every stored tile were dense FP64 (the baseline MF).
  [[nodiscard]] std::size_t dense_fp64_bytes() const;

  /// Materialize the full symmetric matrix (testing / small problems only).
  [[nodiscard]] la::Matrix<double> to_full() const;

  /// y = A x over the full symmetric operator, tile by tile (each tile is
  /// materialized to FP64 per call). Diagnostic path — powers the health
  /// layer's condition estimate; not a performance kernel.
  void symv(const std::vector<double>& x, std::vector<double>& y) const;

  /// ASCII decision heat map, one row per tile row; '.' above the diagonal.
  [[nodiscard]] std::vector<std::string> decision_map() const;

  /// Histogram of per-tile decision codes.
  [[nodiscard]] std::map<char, std::size_t> decision_counts() const;

 private:
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const;

  std::size_t n_;
  std::size_t ts_;
  std::size_t nt_;
  std::vector<Tile> tiles_;  // packed lower triangle, column-major by tile
};

}  // namespace gsx::tile
