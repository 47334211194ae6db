#include "transport/frame.hpp"

#include <cmath>
#include <string_view>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace p2prank::transport {

namespace {

std::uint64_t frame_checksum(std::span<const std::uint8_t> bytes) {
  return util::fnv1a(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace

const char* frame_verdict_name(FrameVerdict v) noexcept {
  switch (v) {
    case FrameVerdict::kOk:
      return "ok";
    case FrameVerdict::kTruncated:
      return "truncated";
    case FrameVerdict::kBadMagic:
      return "bad-magic";
    case FrameVerdict::kBadVersion:
      return "bad-version";
    case FrameVerdict::kBadChecksum:
      return "bad-checksum";
    case FrameVerdict::kBadCount:
      return "bad-count";
    case FrameVerdict::kBadIndexOrder:
      return "bad-index-order";
    case FrameVerdict::kBadScore:
      return "bad-score";
    case FrameVerdict::kBadAddress:
      return "bad-address";
  }
  return "unknown";
}

bool entries_valid(
    std::span<const std::pair<std::uint32_t, double>> entries) noexcept {
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& [index, score] : entries) {
    if (!first && index <= prev) return false;
    if (!std::isfinite(score) || score < 0.0) return false;
    prev = index;
    first = false;
  }
  return true;
}

std::vector<std::uint8_t> encode_frame(
    const FrameHeader& header,
    std::span<const std::pair<std::uint32_t, double>> entries) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + entries.size() * 10);
  util::put_u32(out, kFrameMagic);
  util::put_varint(out, kFrameVersion);
  util::put_varint(out, header.src);
  util::put_varint(out, header.dst);
  util::put_varint(out, header.epoch);
  util::put_varint(out, header.record_count);
  util::put_varint(out, entries.size());
  std::uint32_t prev = 0;
  for (const auto& [index, score] : entries) {
    // Delta-code strictly ascending indices (first entry stores the index
    // itself; later entries store index - prev, always >= 1).
    util::put_varint(out, index - prev);
    util::put_f64(out, score);
    prev = index;
  }
  util::put_u64(out, frame_checksum(out));
  return out;
}

FrameVerdict decode_frame(std::span<const std::uint8_t> bytes,
                          DecodedFrame& out) {
  // Checksum first: once it matches, the remaining fields are exactly what
  // the encoder wrote and parsing cannot go wrong; if it does not match we
  // never trust a length field. A read the byte reader cannot complete
  // (too few bytes, or a varint not in the encoder's minimal form) is
  // kTruncated.
  if (bytes.size() < 12) return FrameVerdict::kTruncated;
  const auto body = bytes.first(bytes.size() - 8);
  const auto trailer = util::ByteReader(bytes.last(8)).u64();
  util::ByteReader reader(body);
  const auto magic = reader.u32();
  if (!magic) return FrameVerdict::kTruncated;
  if (*magic != kFrameMagic) return FrameVerdict::kBadMagic;
  const auto version = reader.varint();
  if (!version) return FrameVerdict::kTruncated;
  if (*version != kFrameVersion) return FrameVerdict::kBadVersion;
  if (trailer != frame_checksum(body)) return FrameVerdict::kBadChecksum;
  const auto src = reader.varint();
  const auto dst = reader.varint();
  const auto epoch = reader.varint();
  const auto record_count = reader.varint();
  const auto count = reader.varint();
  if (!src || !dst || !epoch || !record_count || !count) {
    return FrameVerdict::kTruncated;
  }
  // Group ids are 32-bit; a wider value would be narrowed to another group.
  if (*src > UINT32_MAX || *dst > UINT32_MAX) return FrameVerdict::kBadAddress;
  DecodedFrame frame;
  frame.header = {static_cast<std::uint32_t>(*src),
                  static_cast<std::uint32_t>(*dst), *epoch, *record_count};
  // Each entry is at least 9 bytes (1-byte delta + 8-byte score).
  if (!reader.fits(*count, 9)) return FrameVerdict::kBadCount;
  frame.entries.reserve(*count);
  std::uint64_t index = 0;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto delta = reader.varint();
    const auto score = reader.f64();
    if (!delta || !score) return FrameVerdict::kTruncated;
    // Compared before adding, so a huge delta cannot wrap to a smaller index.
    if ((i > 0 && *delta == 0) || *delta > UINT32_MAX - index) {
      return FrameVerdict::kBadIndexOrder;
    }
    index += *delta;
    if (!std::isfinite(*score) || *score < 0.0) return FrameVerdict::kBadScore;
    frame.entries.emplace_back(static_cast<std::uint32_t>(index), *score);
  }
  if (!reader.at_end()) return FrameVerdict::kBadCount;
  out = std::move(frame);
  return FrameVerdict::kOk;
}

}  // namespace p2prank::transport
