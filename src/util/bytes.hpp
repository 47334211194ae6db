// The byte codec behind every binary format in the repo: the p2pgrb1 graph
// file (graph/graph_io), the checksummed Y-slice frame (transport/frame)
// and the front-coded record batch (transport/wire).
//
// Writers append to a byte vector. Fixed-width integers and doubles are
// little-endian whatever the host order; varints are unsigned LEB128 (seven
// bits per byte, low group first, high bit set while more bytes follow).
//
// ByteReader is the one reader. Its reads never throw and never touch a
// byte outside its span: a read that cannot complete returns std::nullopt,
// and each decoder maps that to its own documented failure. It accepts a
// varint only in the minimal form put_varint emits — at most 10 bytes, a
// 10th byte of 0 or 1, and no zero final byte after the first — so every
// accepted varint re-encodes to the bytes it was read from. A decoder calls
// fits() before it sizes anything from a count it has read.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace p2prank::util {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline void put_bytes(std::vector<std::uint8_t>& out, std::string_view s) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(s.data());
  out.insert(out.end(), data, data + s.size());
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  [[nodiscard]] std::optional<std::uint32_t> u32() noexcept {
    return fixed<std::uint32_t>();
  }

  [[nodiscard]] std::optional<std::uint64_t> u64() noexcept {
    return fixed<std::uint64_t>();
  }

  [[nodiscard]] std::optional<double> f64() noexcept {
    const auto bits = u64();
    if (!bits) return std::nullopt;
    return std::bit_cast<double>(*bits);
  }

  [[nodiscard]] std::optional<std::uint64_t> varint() noexcept {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!fits(1, 1)) return std::nullopt;
      const std::uint8_t byte = bytes_[pos_++];
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) != 0) continue;
      if ((byte == 0 && shift > 0) || (shift == 63 && byte > 1)) {
        return std::nullopt;  // zero padding, or bits beyond 64
      }
      return value;
    }
    return std::nullopt;  // an 11th byte would follow
  }

  /// The next `n` bytes, viewed in place.
  [[nodiscard]] std::optional<std::string_view> bytes(std::uint64_t n) noexcept {
    if (!fits(n, 1)) return std::nullopt;
    const auto* data = reinterpret_cast<const char*>(bytes_.data() + pos_);
    pos_ += static_cast<std::size_t>(n);
    return std::string_view(data, static_cast<std::size_t>(n));
  }

  /// True when `count` items of at least `min_bytes` each fit in the
  /// unread bytes. The one bounds check: every read goes through it.
  [[nodiscard]] bool fits(std::uint64_t count, std::size_t min_bytes) const noexcept {
    return count <= remaining() / min_bytes;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }

 private:
  template <class T>
  std::optional<T> fixed() noexcept {
    if (!fits(sizeof(T), 1)) return std::nullopt;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace p2prank::util
