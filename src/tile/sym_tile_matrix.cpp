#include "tile/sym_tile_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "runtime/task_graph.hpp"

namespace gsx::tile {

SymTileMatrix::SymTileMatrix(std::size_t n, std::size_t tile_size)
    : n_(n), ts_(tile_size), nt_((n + tile_size - 1) / tile_size) {
  GSX_REQUIRE(n >= 1 && tile_size >= 1, "SymTileMatrix: empty matrix or tile");
  tiles_.resize(nt_ * (nt_ + 1) / 2);
}

std::size_t SymTileMatrix::tile_dim(std::size_t i) const {
  GSX_REQUIRE(i < nt_, "tile_dim: tile index out of range");
  return (i + 1 == nt_) ? n_ - i * ts_ : ts_;
}

std::size_t SymTileMatrix::index(std::size_t i, std::size_t j) const {
  GSX_REQUIRE(i < nt_ && j <= i, "SymTileMatrix: need i >= j in stored triangle");
  // Packed lower triangle, column-major: column j holds nt-j tiles.
  return j * nt_ - j * (j - 1) / 2 + (i - j);
}

Tile& SymTileMatrix::at(std::size_t i, std::size_t j) { return tiles_[index(i, j)]; }
const Tile& SymTileMatrix::at(std::size_t i, std::size_t j) const {
  return tiles_[index(i, j)];
}

void SymTileMatrix::generate(const BlockFn& fill, std::size_t num_workers) {
  // Flatten stored-tile coordinates for a balanced parallel loop.
  std::vector<std::pair<std::size_t, std::size_t>> coords;
  coords.reserve(tiles_.size());
  for (std::size_t j = 0; j < nt_; ++j)
    for (std::size_t i = j; i < nt_; ++i) coords.emplace_back(i, j);

  rt::parallel_for(0, coords.size(), num_workers, [&](std::size_t c) {
    generate_tile(coords[c].first, coords[c].second, fill);
  });
}

void SymTileMatrix::generate_tile(std::size_t i, std::size_t j, const BlockFn& fill) {
  la::Matrix<double> block(tile_dim(i), tile_dim(j));
  fill(tile_offset(i), tile_offset(j), block.view());
  at(i, j) = Tile::dense(std::move(block));
}

double SymTileMatrix::frobenius_norm(std::size_t num_workers) const {
  std::vector<double> norms(tiles_.size());
  rt::parallel_for(0, tiles_.size(), num_workers,
                   [&](std::size_t c) { norms[c] = tiles_[c].frobenius(); });
  double sum = 0.0;
  for (std::size_t j = 0; j < nt_; ++j) {
    for (std::size_t i = j; i < nt_; ++i) {
      const double f = norms[index(i, j)];
      sum += (i == j) ? f * f : 2.0 * f * f;
    }
  }
  return std::sqrt(sum);
}

std::size_t SymTileMatrix::footprint_bytes() const {
  std::size_t b = 0;
  for (const Tile& t : tiles_) b += t.bytes();
  return b;
}

std::size_t SymTileMatrix::dense_fp64_bytes() const {
  std::size_t b = 0;
  for (std::size_t j = 0; j < nt_; ++j)
    for (std::size_t i = j; i < nt_; ++i) b += tile_dim(i) * tile_dim(j) * 8;
  return b;
}

la::Matrix<double> SymTileMatrix::to_full() const {
  la::Matrix<double> full(n_, n_);
  for (std::size_t j = 0; j < nt_; ++j) {
    for (std::size_t i = j; i < nt_; ++i) {
      const la::Matrix<double> block = at(i, j).to_dense64();
      const std::size_t gi0 = tile_offset(i);
      const std::size_t gj0 = tile_offset(j);
      for (std::size_t jj = 0; jj < block.cols(); ++jj)
        for (std::size_t ii = 0; ii < block.rows(); ++ii) {
          full(gi0 + ii, gj0 + jj) = block(ii, jj);
          if (i != j) full(gj0 + jj, gi0 + ii) = block(ii, jj);
        }
    }
  }
  return full;
}

void SymTileMatrix::symv(const std::vector<double>& x, std::vector<double>& y) const {
  GSX_REQUIRE(x.size() == n_ && y.size() == n_, "symv: vector length mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t j = 0; j < nt_; ++j) {
    for (std::size_t i = j; i < nt_; ++i) {
      const la::Matrix<double> block = at(i, j).to_dense64();
      const std::size_t gi0 = tile_offset(i);
      const std::size_t gj0 = tile_offset(j);
      for (std::size_t jj = 0; jj < block.cols(); ++jj)
        for (std::size_t ii = 0; ii < block.rows(); ++ii) {
          y[gi0 + ii] += block(ii, jj) * x[gj0 + jj];
          // Diagonal tiles hold the full symmetric block; only off-diagonal
          // tiles need their transpose mirrored in.
          if (i != j) y[gj0 + jj] += block(ii, jj) * x[gi0 + ii];
        }
    }
  }
}

std::vector<std::string> SymTileMatrix::decision_map() const {
  std::vector<std::string> rows(nt_, std::string(nt_, '.'));
  for (std::size_t j = 0; j < nt_; ++j)
    for (std::size_t i = j; i < nt_; ++i) rows[i][j] = at(i, j).decision_code();
  return rows;
}

std::map<char, std::size_t> SymTileMatrix::decision_counts() const {
  std::map<char, std::size_t> counts;
  for (std::size_t j = 0; j < nt_; ++j)
    for (std::size_t i = j; i < nt_; ++i) ++counts[at(i, j).decision_code()];
  return counts;
}

}  // namespace gsx::tile
