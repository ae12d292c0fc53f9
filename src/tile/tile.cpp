#include "tile/tile.hpp"

#include <algorithm>
#include <cmath>

#include "la/blas.hpp"
#include "la/convert.hpp"
#include "la/lapack.hpp"

namespace gsx::tile {

namespace {

/// `m` converted to scalar T.
template <typename T, typename S>
la::Matrix<T> converted(const la::Matrix<S>& m) {
  la::Matrix<T> out(m.rows(), m.cols());
  la::convert(m.cview(), out.view());
  return out;
}

template <typename T>
std::size_t count_nonfinite(const la::Matrix<T>& m) {
  std::size_t n = 0;
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(static_cast<double>(m(i, j)))) ++n;
  return n;
}

}  // namespace

std::size_t Tile::rank() const {
  if (format_ == TileFormat::Dense) return std::min(rows_, cols_);
  return dispatch_lowrank(precision_, [&]<typename T>() { return factors<T>().rank(); });
}

std::size_t Tile::bytes() const {
  const std::size_t elem = bytes_of(precision_);
  if (format_ == TileFormat::Dense) return rows_ * cols_ * elem;
  return (rows_ + cols_) * rank() * elem;
}

double Tile::frobenius() const {
  // A low-rank tile is expanded to its dense FP64 block U V^T, whose norm is
  // taken as a dense FP64 tile's.
  if (format_ == TileFormat::LowRank) return la::norm_frobenius<double>(to_dense64().cview());
  return dispatch(precision_,
                  [&]<typename T>() { return la::norm_frobenius<T>(matrix<T>().cview()); });
}

void Tile::convert_dense(Precision p) {
  GSX_REQUIRE(format_ == TileFormat::Dense, "convert_dense: tile is low-rank");
  if (p == precision_) return;
  payload_ = dispatch(p, [&]<typename T>() { return Payload(to_dense<T>()); });
  precision_ = p;
}

template <typename T>
la::Matrix<T> Tile::to_dense() const {
  if (format_ == TileFormat::Dense)
    return dispatch(precision_, [&]<typename S>() {
      if constexpr (std::is_same_v<S, T>)
        return matrix<T>();
      else
        return converted<T>(matrix<S>());
    });
  return dispatch_lowrank(precision_, [&]<typename S>() {
    const LowRankStorage<S>& lr = factors<S>();
    if (lr.rank() == 0) return la::Matrix<T>(rows_, cols_);
    la::Matrix<S> product(rows_, cols_);
    la::gemm<S>(la::Trans::NoTrans, la::Trans::Trans, S{1}, lr.u.cview(), lr.v.cview(),
                S{0}, product.view());
    if constexpr (std::is_same_v<S, T>)
      return product;
    else
      return converted<T>(product);
  });
}

template la::Matrix<double> Tile::to_dense<double>() const;
template la::Matrix<float> Tile::to_dense<float>() const;
template la::Matrix<half> Tile::to_dense<half>() const;
template la::Matrix<bfloat16> Tile::to_dense<bfloat16>() const;

void Tile::assign_dense64(la::Matrix<double> m) {
  rows_ = m.rows();
  cols_ = m.cols();
  format_ = TileFormat::Dense;
  precision_ = Precision::FP64;
  payload_ = std::move(m);
}

std::size_t Tile::nonfinite_count() const {
  if (format_ == TileFormat::Dense)
    return dispatch(precision_, [&]<typename T>() { return count_nonfinite(matrix<T>()); });
  return dispatch_lowrank(precision_, [&]<typename T>() {
    const LowRankStorage<T>& lr = factors<T>();
    return count_nonfinite(lr.u) + count_nonfinite(lr.v);
  });
}

char Tile::decision_code() const noexcept {
  if (format_ == TileFormat::Dense) {
    switch (precision_) {
      case Precision::FP64: return 'D';
      case Precision::FP32: return 'S';
      case Precision::FP16: return 'H';
      case Precision::BF16: return 'B';
    }
  }
  return precision_ == Precision::FP64 ? 'L' : 'l';
}

}  // namespace gsx::tile
