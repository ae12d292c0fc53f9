// A tile: one block of the covariance matrix, stored dense in one of four
// precisions (FP64, FP32, FP16, BF16) or compressed low-rank (U V^T) in FP64
// or FP32.
//
// The per-tile (format, precision) pair is exactly the runtime decision the
// paper embeds in PaRSEC: structure-aware (dense vs TLR, Algorithm 2) and
// precision-aware (Frobenius rule, Section VI.C). Routines over a tile are
// written once over the storage scalar T (common/precision.hpp) and entered
// through dispatch(precision(), ...) or, for low-rank payloads,
// dispatch_lowrank.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/error.hpp"
#include "common/precision.hpp"
#include "la/matrix.hpp"

namespace gsx::tile {

enum class TileFormat : unsigned char { Dense, LowRank };

/// Low-rank factorization payload: block = U * V^T, U: rows x k, V: cols x k.
template <typename T>
struct LowRankStorage {
  la::Matrix<T> u;
  la::Matrix<T> v;

  [[nodiscard]] std::size_t rank() const noexcept { return u.cols(); }
};

/// dispatch() for low-rank payloads, which store FP64 or FP32 only (the
/// paper never stores LR in FP16): runs `f.template operator()<T>()` with
/// T = double or float; throws for a 16-bit precision.
template <typename F>
decltype(auto) dispatch_lowrank(Precision p, F&& f) {
  GSX_REQUIRE(p == Precision::FP64 || p == Precision::FP32,
              "low-rank tiles are FP64/FP32 only");
  if (p == Precision::FP32) return f.template operator()<float>();
  return f.template operator()<double>();
}

/// Tagged storage for one tile.
class Tile {
 public:
  Tile() = default;

  /// A dense tile stored at T's precision.
  template <typename T>
  static Tile dense(la::Matrix<T> m) {
    Tile t;
    t.format_ = TileFormat::Dense;
    t.precision_ = precision_of<T>;
    t.rows_ = m.rows();
    t.cols_ = m.cols();
    t.payload_ = std::move(m);
    return t;
  }

  /// A low-rank tile U V^T stored at T's precision (FP64 or FP32).
  template <typename T>
  static Tile lowrank(la::Matrix<T> u, la::Matrix<T> v) {
    static_assert(std::is_same_v<T, double> || std::is_same_v<T, float>,
                  "low-rank tiles are FP64/FP32 only");
    GSX_REQUIRE(u.cols() == v.cols(), "Tile::lowrank: U and V rank mismatch");
    Tile t;
    t.format_ = TileFormat::LowRank;
    t.precision_ = precision_of<T>;
    t.rows_ = u.rows();
    t.cols_ = v.rows();
    t.payload_ = LowRankStorage<T>{std::move(u), std::move(v)};
    return t;
  }

  [[nodiscard]] TileFormat format() const noexcept { return format_; }
  [[nodiscard]] Precision precision() const noexcept { return precision_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Rank of a low-rank tile; for dense tiles returns min(rows, cols).
  [[nodiscard]] std::size_t rank() const;

  /// Storage footprint in bytes (payload only).
  [[nodiscard]] std::size_t bytes() const;

  /// Frobenius norm of the represented block.
  [[nodiscard]] double frobenius() const;

  /// The dense payload; throws unless the tile is dense at T.
  template <typename T>
  [[nodiscard]] la::Matrix<T>& matrix() {
    return const_cast<la::Matrix<T>&>(std::as_const(*this).matrix<T>());
  }
  template <typename T>
  [[nodiscard]] const la::Matrix<T>& matrix() const {
    GSX_REQUIRE(format_ == TileFormat::Dense && precision_ == precision_of<T>,
                "tile: not dense " + std::string(precision_name(precision_of<T>)));
    return std::get<la::Matrix<T>>(payload_);
  }

  /// The low-rank factors; throws unless the tile is low-rank at T.
  template <typename T>
  [[nodiscard]] LowRankStorage<T>& factors() {
    return const_cast<LowRankStorage<T>&>(std::as_const(*this).factors<T>());
  }
  template <typename T>
  [[nodiscard]] const LowRankStorage<T>& factors() const {
    GSX_REQUIRE(format_ == TileFormat::LowRank && precision_ == precision_of<T>,
                "tile: not LR " + std::string(precision_name(precision_of<T>)));
    return std::get<LowRankStorage<T>>(payload_);
  }

  /// Convert a dense tile's storage precision in place (rounds on demotion),
  /// straight from the stored matrix. No-op if already at `p`. Throws for
  /// low-rank tiles.
  void convert_dense(Precision p);

  /// Materialize the represented block as a dense matrix at T (works for
  /// any state): a copy of a dense tile at T, the stored matrix converted
  /// otherwise; a low-rank tile forms U V^T at its stored precision first.
  template <typename T>
  [[nodiscard]] la::Matrix<T> to_dense() const;

  /// to_dense<double>().
  [[nodiscard]] la::Matrix<double> to_dense64() const { return to_dense<double>(); }

  /// Replace the payload with dense FP64 content (decompression).
  void assign_dense64(la::Matrix<double> m);

  /// One-letter code for decision heat maps: 'D' dense FP64, 'S' dense FP32,
  /// 'H' dense FP16, 'B' dense BF16, 'L' LR FP64, 'l' LR FP32.
  [[nodiscard]] char decision_code() const noexcept;

  /// Count NaN/Inf entries in the stored payload (low-rank tiles scan the
  /// U/V factors, not the product). Health-sentinel path, O(payload).
  [[nodiscard]] std::size_t nonfinite_count() const;

 private:
  using Payload = std::variant<std::monostate, la::Matrix<double>, la::Matrix<float>,
                               la::Matrix<half>, la::Matrix<bfloat16>,
                               LowRankStorage<double>, LowRankStorage<float>>;

  TileFormat format_ = TileFormat::Dense;
  Precision precision_ = Precision::FP64;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Payload payload_;
};

extern template la::Matrix<double> Tile::to_dense<double>() const;
extern template la::Matrix<float> Tile::to_dense<float>() const;
extern template la::Matrix<half> Tile::to_dense<half>() const;
extern template la::Matrix<bfloat16> Tile::to_dense<bfloat16>() const;

}  // namespace gsx::tile
