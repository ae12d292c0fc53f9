// Shared per-tile binary codec: one record format for every place a tile
// crosses a process boundary — checkpoint files (gsx-ckpt-v1 FACT sections)
// and the distributed tile wire (src/dist transport, out-of-core spill
// files).
//
// Record layout (little-endian; the layout of gsx-ckpt-v1 checkpoints, so
// existing checkpoints stay readable):
//   u8  format (0 dense, 1 low-rank)
//   u8  precision (Precision enum value)
//   u16 reserved (0)
//   u64 rows, u64 cols, u64 rank
//   payload: dense -> the storage matrix verbatim at its stored width;
//            low-rank -> U (rows x rank) then V (cols x rank), stored width.
// A tile therefore ships at its *stored* precision — FP16 tiles cost 2
// bytes/element on the wire and TLR tiles cost (rows+cols)*rank elements,
// which is how the paper's mixed-precision footprint win becomes a
// bandwidth win.
//
// The framed variant wraps the record for unreliable media (sockets, spill
// files): u32 magic "GSXT", u32 CRC32 of the record, u64 record bytes,
// record. decode_tile_framed verifies magic, bounds and CRC and throws
// InvalidArgument on any mismatch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tile/tile.hpp"

namespace gsx::tile {

/// CRC32 (IEEE 802.3 reflected polynomial 0xEDB88320) — the checksum used by
/// checkpoints, the dist wire and spill files alike.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Append one bare tile record to `out` (no framing, no CRC — the caller
/// provides integrity, e.g. the checkpoint's per-section CRC).
void encode_tile(const Tile& t, std::vector<std::uint8_t>& out);

/// Parse one bare record from `in` at `offset`, advancing it past the
/// record. Throws InvalidArgument on truncated or malformed input.
Tile decode_tile(std::span<const std::uint8_t> in, std::size_t& offset);

/// "GSXT" little-endian.
inline constexpr std::uint32_t kTileFrameMagic = 0x54585347u;
/// Framed header bytes: magic + crc + u64 length.
inline constexpr std::size_t kTileFrameHeader = 16;

/// Append magic + CRC32 + length + record.
void encode_tile_framed(const Tile& t, std::vector<std::uint8_t>& out);

/// Parse one framed record, verifying magic, bounds and CRC. Throws
/// InvalidArgument on corruption of any byte of header or payload.
Tile decode_tile_framed(std::span<const std::uint8_t> in, std::size_t& offset);

/// Bytes encode_tile would produce for this tile (header + stored payload),
/// without materializing the buffer — the wire-cost estimate.
std::size_t encoded_tile_bytes(const Tile& t);

}  // namespace gsx::tile
