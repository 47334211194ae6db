// Versioned, checksummed wire frame for Y-slice exchange.
//
// The chaos fault plane (fault_plane.hpp) can flip arbitrary bytes of a
// frame in flight; ROADMAP item 3 (real socket transport) will face the
// same garbage from the network. Every frame therefore carries a magic
// word, a format version, and a trailing FNV-1a checksum over everything
// that precedes it. decode_frame() validates all three plus the payload
// shape (strictly ascending local indices, finite non-negative scores)
// and returns a verdict instead of throwing — a corrupted frame must be
// quarantinable on the hot path without unwinding.
//
// Format (all integers varint/LEB128 unless noted; bytes via
// util/bytes.hpp, whose reader accepts only the minimal varint the writer
// emits):
//   magic (4 bytes LE) | version | src | dst | epoch | record_count |
//   entry_count | entries: (index delta, score as 8-byte LE double)* |
//   checksum (8 bytes LE, FNV-1a over all preceding bytes)
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace p2prank::transport {

/// Wire-format version literal (p2plint wire-format-version): "p2prank-frame v1".
inline constexpr std::uint32_t kFrameMagic = 0x50325246;  // "P2RF"
inline constexpr std::uint64_t kFrameVersion = 1;

/// Why a frame was accepted or quarantined.
enum class FrameVerdict : std::uint8_t {
  kOk,
  kTruncated,      ///< ran out of bytes mid-field, or a non-minimal varint
  kBadMagic,       ///< first four bytes are not kFrameMagic
  kBadVersion,     ///< version != kFrameVersion
  kBadChecksum,    ///< trailing FNV-1a mismatch
  kBadCount,       ///< entry count inconsistent with payload size
  kBadIndexOrder,  ///< local indices not strictly ascending
  kBadScore,       ///< NaN / Inf / negative score
  kBadAddress,     ///< src or dst group id above UINT32_MAX
};

[[nodiscard]] const char* frame_verdict_name(FrameVerdict v) noexcept;

/// Frame addressing + payload accounting carried alongside the entries.
struct FrameHeader {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t epoch = 0;
  std::uint64_t record_count = 0;  ///< contributing link records (cost model)
};

struct DecodedFrame {
  FrameHeader header;
  std::vector<std::pair<std::uint32_t, double>> entries;
};

/// True iff entries are strictly ascending by index with finite,
/// non-negative scores — the shape refresh_x() assumes. Shared by the
/// codec and the engine's poisoned-slice guard.
[[nodiscard]] bool entries_valid(
    std::span<const std::pair<std::uint32_t, double>> entries) noexcept;

/// Encode one frame. Entries must satisfy entries_valid().
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    const FrameHeader& header,
    std::span<const std::pair<std::uint32_t, double>> entries);

/// Validate + decode. On any verdict other than kOk, `out` is untouched
/// and the frame must be quarantined (counted, never applied).
[[nodiscard]] FrameVerdict decode_frame(std::span<const std::uint8_t> bytes,
                                        DecodedFrame& out);

}  // namespace p2prank::transport
