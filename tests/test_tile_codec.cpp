// Shared tile serialization (tile_codec): per-precision round trips, the
// CRC-framed variant used by the dist wire and spill files, and the record
// bytes pinned for every (format, precision) pair.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/precision.hpp"
#include "la/matrix.hpp"
#include "tile/tile.hpp"
#include "tile/tile_codec.hpp"

namespace gsx::tile {
namespace {

la::Matrix<double> sample_block(std::size_t rows, std::size_t cols) {
  la::Matrix<double> m(rows, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i)
      m(i, j) = 0.25 * static_cast<double>(i + 1) -
                0.5 * static_cast<double>(j) / static_cast<double>(cols);
  return m;
}

Tile dense_tile(Precision p, std::size_t rows = 7, std::size_t cols = 5) {
  Tile t = Tile::dense(sample_block(rows, cols));
  t.convert_dense(p);
  return t;
}

Tile lowrank_tile(bool fp32) {
  const std::size_t rows = 6, cols = 8, rank = 2;
  la::Matrix<double> u(rows, rank), v(cols, rank);
  for (std::size_t k = 0; k < rank; ++k) {
    for (std::size_t i = 0; i < rows; ++i)
      u(i, k) = 0.1 * static_cast<double>(i + k + 1);
    for (std::size_t j = 0; j < cols; ++j)
      v(j, k) = 1.0 / static_cast<double>(j + k + 2);
  }
  if (!fp32) return Tile::lowrank(std::move(u), std::move(v));
  la::Matrix<float> u32(rows, rank), v32(cols, rank);
  for (std::size_t k = 0; k < rank; ++k) {
    for (std::size_t i = 0; i < rows; ++i) u32(i, k) = static_cast<float>(u(i, k));
    for (std::size_t j = 0; j < cols; ++j) v32(j, k) = static_cast<float>(v(j, k));
  }
  return Tile::lowrank(std::move(u32), std::move(v32));
}

void expect_round_trip(const Tile& t) {
  std::vector<std::uint8_t> buf;
  encode_tile(t, buf);
  std::size_t off = 0;
  const Tile back = decode_tile(buf, off);
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(back.format(), t.format());
  EXPECT_EQ(back.precision(), t.precision());
  EXPECT_EQ(back.rows(), t.rows());
  EXPECT_EQ(back.cols(), t.cols());
  // Stored-width fidelity: re-encoding the decoded tile is byte-identical.
  std::vector<std::uint8_t> buf2;
  encode_tile(back, buf2);
  EXPECT_EQ(buf, buf2);
}

TEST(TileCodec, RoundTripEveryPrecision) {
  expect_round_trip(dense_tile(Precision::FP64));
  expect_round_trip(dense_tile(Precision::FP32));
  expect_round_trip(dense_tile(Precision::FP16));
  expect_round_trip(dense_tile(Precision::BF16));
  expect_round_trip(lowrank_tile(/*fp32=*/false));
  expect_round_trip(lowrank_tile(/*fp32=*/true));
}

/// FNV-1a (64-bit) of a byte string.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(TileCodec, RecordBytesArePinned) {
  // Saved checkpoints and spill files hold these records, so the bytes may
  // not move even when encoder and decoder change together. Values recorded
  // from the gsx-ckpt-v1 codec; the tiles are 7 x 5 dense and 6 x 8 rank-2
  // low-rank, so rows and cols cannot be swapped unnoticed.
  struct Case {
    Tile tile;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Case cases[] = {
      {dense_tile(Precision::FP64), 308, 0x4306ca9b3375faa7ull},
      {dense_tile(Precision::FP32), 168, 0xc5d3f3cb72df1317ull},
      {dense_tile(Precision::FP16), 98, 0x1fe533be2c391a81ull},
      {dense_tile(Precision::BF16), 98, 0x55da8cae3c9f436full},
      {lowrank_tile(/*fp32=*/false), 252, 0x1723b956cd80c6b3ull},
      {lowrank_tile(/*fp32=*/true), 140, 0xc845c24259d0bed6ull},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> buf;
    encode_tile(c.tile, buf);
    EXPECT_EQ(buf.size(), c.bytes) << c.tile.decision_code();
    EXPECT_EQ(fnv1a(buf), c.fnv) << c.tile.decision_code();
  }
}

TEST(TileCodec, RaggedTileRoundTrip) {
  expect_round_trip(dense_tile(Precision::FP64, 3, 11));
  expect_round_trip(dense_tile(Precision::FP16, 1, 1));
}

TEST(TileCodec, FramedRoundTrip) {
  const Tile t = dense_tile(Precision::FP32);
  std::vector<std::uint8_t> buf;
  encode_tile_framed(t, buf);
  EXPECT_EQ(buf.size(), kTileFrameHeader + encoded_tile_bytes(t));
  std::size_t off = 0;
  const Tile back = decode_tile_framed(buf, off);
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(back.precision(), Precision::FP32);
}

TEST(TileCodec, FramedRejectsEveryFlippedByte) {
  const Tile t = dense_tile(Precision::FP16, 3, 3);
  std::vector<std::uint8_t> buf;
  encode_tile_framed(t, buf);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    std::vector<std::uint8_t> bad = buf;
    bad[i] ^= 0x40;
    std::size_t off = 0;
    EXPECT_THROW((void)decode_tile_framed(bad, off), InvalidArgument)
        << "flipped byte " << i << " was accepted";
  }
}

TEST(TileCodec, FramedRejectsTruncation) {
  const Tile t = dense_tile(Precision::FP64);
  std::vector<std::uint8_t> buf;
  encode_tile_framed(t, buf);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 kTileFrameHeader - 1, buf.size() - 1}) {
    std::vector<std::uint8_t> cut(buf.begin(),
                                  buf.begin() + static_cast<std::ptrdiff_t>(keep));
    std::size_t off = 0;
    EXPECT_THROW((void)decode_tile_framed(cut, off), InvalidArgument);
  }
}

TEST(TileCodec, BareDecodeRejectsGarbage) {
  std::vector<std::uint8_t> junk(64, 0xAB);
  std::size_t off = 0;
  EXPECT_THROW((void)decode_tile(junk, off), InvalidArgument);
}

}  // namespace
}  // namespace gsx::tile
