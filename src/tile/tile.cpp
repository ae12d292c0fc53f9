#include "tile/tile.hpp"

#include "tile/tile_codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/convert.hpp"
#include "la/lapack.hpp"

namespace gsx::tile {

Tile Tile::dense64(la::Matrix<double> m) {
  Tile t;
  t.format_ = TileFormat::Dense;
  t.precision_ = Precision::FP64;
  t.rows_ = m.rows();
  t.cols_ = m.cols();
  t.payload_ = std::move(m);
  return t;
}

Tile Tile::dense32(la::Matrix<float> m) {
  Tile t;
  t.format_ = TileFormat::Dense;
  t.precision_ = Precision::FP32;
  t.rows_ = m.rows();
  t.cols_ = m.cols();
  t.payload_ = std::move(m);
  return t;
}

Tile Tile::dense16(la::Matrix<half> m) {
  Tile t;
  t.format_ = TileFormat::Dense;
  t.precision_ = Precision::FP16;
  t.rows_ = m.rows();
  t.cols_ = m.cols();
  t.payload_ = std::move(m);
  return t;
}

Tile Tile::dense_bf16(la::Matrix<bfloat16> m) {
  Tile t;
  t.format_ = TileFormat::Dense;
  t.precision_ = Precision::BF16;
  t.rows_ = m.rows();
  t.cols_ = m.cols();
  t.payload_ = std::move(m);
  return t;
}

Tile Tile::lowrank64(la::Matrix<double> u, la::Matrix<double> v) {
  GSX_REQUIRE(u.cols() == v.cols(), "lowrank64: U and V rank mismatch");
  Tile t;
  t.format_ = TileFormat::LowRank;
  t.precision_ = Precision::FP64;
  t.rows_ = u.rows();
  t.cols_ = v.rows();
  t.payload_ = LowRankStorage<double>{std::move(u), std::move(v)};
  return t;
}

Tile Tile::lowrank32(la::Matrix<float> u, la::Matrix<float> v) {
  GSX_REQUIRE(u.cols() == v.cols(), "lowrank32: U and V rank mismatch");
  Tile t;
  t.format_ = TileFormat::LowRank;
  t.precision_ = Precision::FP32;
  t.rows_ = u.rows();
  t.cols_ = v.rows();
  t.payload_ = LowRankStorage<float>{std::move(u), std::move(v)};
  return t;
}

std::size_t Tile::rank() const {
  if (format_ == TileFormat::Dense) return std::min(rows_, cols_);
  if (precision_ == Precision::FP64) return std::get<LowRankStorage<double>>(payload_).rank();
  return std::get<LowRankStorage<float>>(payload_).rank();
}

std::size_t Tile::bytes() const {
  const std::size_t elem = bytes_of(precision_);
  if (format_ == TileFormat::Dense) return rows_ * cols_ * elem;
  return (rows_ + cols_) * rank() * elem;
}

double Tile::frobenius() const {
  if (format_ == TileFormat::Dense) {
    switch (precision_) {
      case Precision::FP64: return la::norm_frobenius<double>(d64().cview());
      case Precision::FP32: return la::norm_frobenius<float>(d32().cview());
      case Precision::FP16: {
        double s = 0.0;
        const auto& m = d16();
        for (std::size_t j = 0; j < m.cols(); ++j)
          for (std::size_t i = 0; i < m.rows(); ++i) {
            const double v = static_cast<double>(m(i, j));
            s += v * v;
          }
        return std::sqrt(s);
      }
      case Precision::BF16: {
        double s = 0.0;
        const auto& m = dbf16();
        for (std::size_t j = 0; j < m.cols(); ++j)
          for (std::size_t i = 0; i < m.rows(); ++i) {
            const double v = static_cast<double>(m(i, j));
            s += v * v;
          }
        return std::sqrt(s);
      }
    }
  }
  // A low-rank tile is expanded to its dense FP64 block U V^T, whose norm is
  // taken as a dense FP64 tile's.
  const la::Matrix<double> full = to_dense64();
  return la::norm_frobenius<double>(full.cview());
}

la::Matrix<double>& Tile::d64() {
  GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == Precision::FP64, "tile: not dense FP64");
  return std::get<la::Matrix<double>>(payload_);
}
const la::Matrix<double>& Tile::d64() const {
  GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == Precision::FP64, "tile: not dense FP64");
  return std::get<la::Matrix<double>>(payload_);
}
la::Matrix<float>& Tile::d32() {
  GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == Precision::FP32, "tile: not dense FP32");
  return std::get<la::Matrix<float>>(payload_);
}
const la::Matrix<float>& Tile::d32() const {
  GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == Precision::FP32, "tile: not dense FP32");
  return std::get<la::Matrix<float>>(payload_);
}
la::Matrix<half>& Tile::d16() {
  GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == Precision::FP16, "tile: not dense FP16");
  return std::get<la::Matrix<half>>(payload_);
}
const la::Matrix<half>& Tile::d16() const {
  GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == Precision::FP16, "tile: not dense FP16");
  return std::get<la::Matrix<half>>(payload_);
}
la::Matrix<bfloat16>& Tile::dbf16() {
  GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == Precision::BF16, "tile: not dense BF16");
  return std::get<la::Matrix<bfloat16>>(payload_);
}
const la::Matrix<bfloat16>& Tile::dbf16() const {
  GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == Precision::BF16, "tile: not dense BF16");
  return std::get<la::Matrix<bfloat16>>(payload_);
}
LowRankStorage<double>& Tile::lr64() {
  GSX_REQUIRE(format_ == TileFormat::LowRank && precision_ == Precision::FP64, "tile: not LR FP64");
  return std::get<LowRankStorage<double>>(payload_);
}
const LowRankStorage<double>& Tile::lr64() const {
  GSX_REQUIRE(format_ == TileFormat::LowRank && precision_ == Precision::FP64, "tile: not LR FP64");
  return std::get<LowRankStorage<double>>(payload_);
}
LowRankStorage<float>& Tile::lr32() {
  GSX_REQUIRE(format_ == TileFormat::LowRank && precision_ == Precision::FP32, "tile: not LR FP32");
  return std::get<LowRankStorage<float>>(payload_);
}
const LowRankStorage<float>& Tile::lr32() const {
  GSX_REQUIRE(format_ == TileFormat::LowRank && precision_ == Precision::FP32, "tile: not LR FP32");
  return std::get<LowRankStorage<float>>(payload_);
}

void Tile::convert_dense(Precision p) {
  GSX_REQUIRE(format_ == TileFormat::Dense, "convert_dense: tile is low-rank");
  if (p == precision_) return;
  const la::Matrix<double> full = to_dense64();
  switch (p) {
    case Precision::FP64:
      payload_ = full;
      break;
    case Precision::FP32: {
      la::Matrix<float> m(rows_, cols_);
      la::convert(full.cview(), m.view());
      payload_ = std::move(m);
      break;
    }
    case Precision::FP16: {
      la::Matrix<half> m(rows_, cols_);
      la::convert(full.cview(), m.view());
      payload_ = std::move(m);
      break;
    }
    case Precision::BF16: {
      la::Matrix<bfloat16> m(rows_, cols_);
      la::convert(full.cview(), m.view());
      payload_ = std::move(m);
      break;
    }
  }
  precision_ = p;
}

la::Matrix<double> Tile::to_dense64() const {
  la::Matrix<double> out(rows_, cols_);
  if (format_ == TileFormat::Dense) {
    switch (precision_) {
      case Precision::FP64: return std::get<la::Matrix<double>>(payload_);
      case Precision::FP32:
        la::convert(std::get<la::Matrix<float>>(payload_).cview(), out.view());
        return out;
      case Precision::FP16:
        la::convert(std::get<la::Matrix<half>>(payload_).cview(), out.view());
        return out;
      case Precision::BF16:
        la::convert(std::get<la::Matrix<bfloat16>>(payload_).cview(), out.view());
        return out;
    }
  }
  if (precision_ == Precision::FP64) {
    const auto& lr = std::get<LowRankStorage<double>>(payload_);
    if (lr.rank() > 0)
      la::gemm<double>(la::Trans::NoTrans, la::Trans::Trans, 1.0, lr.u.cview(),
                       lr.v.cview(), 0.0, out.view());
    return out;
  }
  const auto& lr = std::get<LowRankStorage<float>>(payload_);
  if (lr.rank() > 0) {
    la::Matrix<float> tmp(rows_, cols_);
    la::gemm<float>(la::Trans::NoTrans, la::Trans::Trans, 1.0f, lr.u.cview(),
                    lr.v.cview(), 0.0f, tmp.view());
    la::convert(tmp.cview(), out.view());
  }
  return out;
}

void Tile::assign_dense64(la::Matrix<double> m) {
  rows_ = m.rows();
  cols_ = m.cols();
  format_ = TileFormat::Dense;
  precision_ = Precision::FP64;
  payload_ = std::move(m);
}

namespace {

template <typename T>
std::size_t count_nonfinite(const la::Matrix<T>& m) {
  std::size_t n = 0;
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(static_cast<double>(m(i, j)))) ++n;
  return n;
}

}  // namespace

std::size_t Tile::nonfinite_count() const {
  if (format_ == TileFormat::Dense) {
    switch (precision_) {
      case Precision::FP64: return count_nonfinite(std::get<la::Matrix<double>>(payload_));
      case Precision::FP32: return count_nonfinite(std::get<la::Matrix<float>>(payload_));
      case Precision::FP16: return count_nonfinite(std::get<la::Matrix<half>>(payload_));
      case Precision::BF16:
        return count_nonfinite(std::get<la::Matrix<bfloat16>>(payload_));
    }
  }
  if (precision_ == Precision::FP64) {
    const auto& lr = std::get<LowRankStorage<double>>(payload_);
    return count_nonfinite(lr.u) + count_nonfinite(lr.v);
  }
  const auto& lr = std::get<LowRankStorage<float>>(payload_);
  return count_nonfinite(lr.u) + count_nonfinite(lr.v);
}

void Tile::serialize(std::vector<std::uint8_t>& out) const {
  GSX_REQUIRE(!std::holds_alternative<std::monostate>(payload_),
              "Tile::serialize: empty tile");
  encode_tile(*this, out);
}

Tile Tile::deserialize(std::span<const std::uint8_t> in, std::size_t& offset) {
  return decode_tile(in, offset);
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
