#include "tile/tile_codec.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace gsx::tile {

namespace {

static_assert(std::endian::native == std::endian::little,
              "tile codec assumes a little-endian host");

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto base = out.size();
  out.resize(base + sizeof(v));
  std::memcpy(out.data() + base, &v, sizeof(v));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto base = out.size();
  out.resize(base + sizeof(v));
  std::memcpy(out.data() + base, &v, sizeof(v));
}

std::uint64_t read_u64(std::span<const std::uint8_t> in, std::size_t& offset) {
  GSX_REQUIRE(offset + sizeof(std::uint64_t) <= in.size(),
              "tile codec: truncated record");
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + offset, sizeof(v));
  offset += sizeof(v);
  return v;
}

std::uint32_t read_u32(std::span<const std::uint8_t> in, std::size_t& offset) {
  GSX_REQUIRE(offset + sizeof(std::uint32_t) <= in.size(),
              "tile codec: truncated frame header");
  std::uint32_t v = 0;
  std::memcpy(&v, in.data() + offset, sizeof(v));
  offset += sizeof(v);
  return v;
}

template <typename T>
void append_matrix(std::vector<std::uint8_t>& out, const la::Matrix<T>& m) {
  const std::size_t nbytes = m.size() * sizeof(T);
  const auto base = out.size();
  out.resize(base + nbytes);
  if (nbytes > 0) std::memcpy(out.data() + base, m.data(), nbytes);
}

template <typename T>
la::Matrix<T> read_matrix(std::span<const std::uint8_t> in, std::size_t& offset,
                          std::size_t rows, std::size_t cols) {
  la::Matrix<T> m(rows, cols);
  const std::size_t nbytes = m.size() * sizeof(T);
  GSX_REQUIRE(offset + nbytes <= in.size(), "tile codec: truncated payload");
  if (nbytes > 0) std::memcpy(m.data(), in.data() + offset, nbytes);
  offset += nbytes;
  return m;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void encode_tile(const Tile& t, std::vector<std::uint8_t>& out) {
  GSX_REQUIRE(t.rows() > 0 && t.cols() > 0, "tile codec: empty tile");
  out.push_back(static_cast<std::uint8_t>(t.format()));
  out.push_back(static_cast<std::uint8_t>(t.precision()));
  out.push_back(0);  // reserved
  out.push_back(0);  // reserved
  append_u64(out, t.rows());
  append_u64(out, t.cols());
  append_u64(out, t.rank());
  if (t.format() == TileFormat::Dense) {
    dispatch(t.precision(), [&]<typename T>() { append_matrix(out, t.matrix<T>()); });
    return;
  }
  dispatch_lowrank(t.precision(), [&]<typename T>() {
    append_matrix(out, t.factors<T>().u);
    append_matrix(out, t.factors<T>().v);
  });
}

Tile decode_tile(std::span<const std::uint8_t> in, std::size_t& offset) {
  GSX_REQUIRE(offset + 4 <= in.size(), "tile codec: truncated header");
  const auto format = static_cast<TileFormat>(in[offset]);
  const auto precision = static_cast<Precision>(in[offset + 1]);
  GSX_REQUIRE(in[offset] <= static_cast<std::uint8_t>(TileFormat::LowRank) &&
                  in[offset + 1] < kNumPrecisions,
              "tile codec: unknown format/precision tag");
  offset += 4;
  const std::uint64_t rows = read_u64(in, offset);
  const std::uint64_t cols = read_u64(in, offset);
  const std::uint64_t rank = read_u64(in, offset);
  // Reject absurd extents before sizing buffers from untrusted input.
  constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 32;
  GSX_REQUIRE(rows > 0 && cols > 0 && rows < kMaxDim && cols < kMaxDim &&
                  rank <= std::min(rows, cols),
              "tile codec: implausible tile extents");
  if (format == TileFormat::Dense)
    return dispatch(precision, [&]<typename T>() {
      return Tile::dense(read_matrix<T>(in, offset, rows, cols));
    });
  return dispatch_lowrank(precision, [&]<typename T>() {
    la::Matrix<T> u = read_matrix<T>(in, offset, rows, rank);
    la::Matrix<T> v = read_matrix<T>(in, offset, cols, rank);
    return Tile::lowrank(std::move(u), std::move(v));
  });
}

void encode_tile_framed(const Tile& t, std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> record;
  record.reserve(kTileFrameHeader + encoded_tile_bytes(t));
  encode_tile(t, record);
  append_u32(out, kTileFrameMagic);
  append_u32(out, crc32(record.data(), record.size()));
  append_u64(out, record.size());
  out.insert(out.end(), record.begin(), record.end());
}

Tile decode_tile_framed(std::span<const std::uint8_t> in, std::size_t& offset) {
  const std::uint32_t magic = read_u32(in, offset);
  GSX_REQUIRE(magic == kTileFrameMagic, "tile codec: bad frame magic");
  const std::uint32_t expected = read_u32(in, offset);
  const std::uint64_t len = read_u64(in, offset);
  GSX_REQUIRE(len >= 28 && offset + len <= in.size(),
              "tile codec: truncated framed record");
  const std::uint32_t actual = crc32(in.data() + offset, len);
  GSX_REQUIRE(actual == expected, "tile codec: CRC mismatch (corrupt tile record)");
  std::size_t record_off = offset;
  Tile t = decode_tile(in, record_off);
  GSX_REQUIRE(record_off == offset + len,
              "tile codec: framed length disagrees with record");
  offset += len;
  return t;
}

std::size_t encoded_tile_bytes(const Tile& t) {
  return 28 + t.bytes();  // 4 tag bytes + 3 u64 extents + stored payload
}

}  // namespace gsx::tile
