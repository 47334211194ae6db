// Tests for the byte codec behind every binary format (util/bytes.hpp).
// Each table row is one case: the writer rows pin the exact bytes (little-
// endian fixed widths, minimal LEB128 varints) and read them back; the
// reject rows are inputs every read must refuse without touching a byte
// outside the span (check_sanitized.sh runs this suite under ASan+UBSan).
#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

namespace p2prank::util {
namespace {

using Bytes = std::vector<std::uint8_t>;

enum class Kind { kU32, kU64, kF64, kVarint, kBytes };

/// A writer row: `value` written as `kind` is exactly `bytes`. A reject
/// row: reading `kind` from `bytes` fails (`value` is the length a kBytes
/// read asks for).
struct Row {
  const char* name;
  Kind kind;
  std::uint64_t value;
  Bytes bytes;
};

void write(Bytes& out, const Row& row) {
  switch (row.kind) {
    case Kind::kU32:
      put_u32(out, static_cast<std::uint32_t>(row.value));
      return;
    case Kind::kU64:
      put_u64(out, row.value);
      return;
    case Kind::kF64:
      put_f64(out, std::bit_cast<double>(row.value));
      return;
    case Kind::kVarint:
      put_varint(out, row.value);
      return;
    case Kind::kBytes:
      return;  // raw byte runs have no writer rows
  }
}

/// The value read (f64 as its bits, kBytes as the view's length).
std::optional<std::uint64_t> read(ByteReader& reader, const Row& row) {
  switch (row.kind) {
    case Kind::kU32:
      return reader.u32();
    case Kind::kU64:
      return reader.u64();
    case Kind::kF64: {
      const auto v = reader.f64();
      if (!v) return std::nullopt;
      return std::bit_cast<std::uint64_t>(*v);
    }
    case Kind::kVarint:
      return reader.varint();
    case Kind::kBytes: {
      const auto v = reader.bytes(row.value);
      if (!v) return std::nullopt;
      return v->size();
    }
  }
  return std::nullopt;
}

TEST(ByteCodec, WriterRowsEmitExactBytesAndReadBack) {
  const Row rows[] = {
      {"u32 is little-endian on any host", Kind::kU32, 0x01020304,
       {0x04, 0x03, 0x02, 0x01}},
      {"u64 is little-endian on any host", Kind::kU64, 0x0102030405060708,
       {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}},
      {"f64 is its IEEE 754 bits, little-endian", Kind::kF64,
       std::bit_cast<std::uint64_t>(1.0),
       {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f}},
      {"varint 0", Kind::kVarint, 0, {0x00}},
      {"varint 1", Kind::kVarint, 1, {0x01}},
      {"varint 100 is one byte", Kind::kVarint, 100, {0x64}},
      {"varint 127", Kind::kVarint, 127, {0x7f}},
      {"varint 128", Kind::kVarint, 128, {0x80, 0x01}},
      {"varint 16383", Kind::kVarint, 16383, {0xff, 0x7f}},
      {"varint 16384", Kind::kVarint, 16384, {0x80, 0x80, 0x01}},
      {"varint 2^64-1 is ten bytes", Kind::kVarint, ~std::uint64_t{0},
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    Bytes out;
    write(out, row);
    EXPECT_EQ(out, row.bytes);
    ByteReader reader(row.bytes);
    EXPECT_EQ(read(reader, row), row.value);
    EXPECT_TRUE(reader.at_end());
  }
}

TEST(Varint, RoundTripsBoundaryValues) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, ~0ULL}) {
    Bytes buf;
    put_varint(buf, v);
    ByteReader reader(buf);
    EXPECT_EQ(reader.varint(), v);
    EXPECT_TRUE(reader.at_end());
  }
}

TEST(Varint, SmallValuesAreOneByte) {
  Bytes buf;
  put_varint(buf, 100);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(ByteCodec, ReaderRejectRows) {
  const Row rows[] = {
      {"empty varint", Kind::kVarint, 0, {}},
      {"continuation bit with no next byte", Kind::kVarint, 0, {0x80}},
      {"zero-padded 0", Kind::kVarint, 0, {0x80, 0x00}},
      {"zero-padded 1", Kind::kVarint, 0, {0x81, 0x00}},
      {"zero 10th byte", Kind::kVarint, 0,
       {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}},
      {"10th byte 0x02 sets bit 64", Kind::kVarint, 0,
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
      {"10th byte 0x7e drops its high bits", Kind::kVarint, 0,
       {0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7e}},
      {"eleven bytes", Kind::kVarint, 0,
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00}},
      {"u32 from three bytes", Kind::kU32, 0, {1, 2, 3}},
      {"u64 from seven bytes", Kind::kU64, 0, {1, 2, 3, 4, 5, 6, 7}},
      {"f64 from three bytes", Kind::kF64, 0, {1, 2, 3}},
      {"four bytes from three", Kind::kBytes, 4, {1, 2, 3}},
      {"2^64-1 bytes from three (position + n wraps)", Kind::kBytes,
       ~std::uint64_t{0}, {1, 2, 3}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    ByteReader reader(row.bytes);
    EXPECT_EQ(read(reader, row), std::nullopt);
  }
}

TEST(ByteCodec, FitsBoundsCountTimesMinimumByRemainingBytes) {
  const Bytes nine(9);
  ByteReader reader(nine);
  EXPECT_TRUE(reader.fits(0, 9));
  EXPECT_TRUE(reader.fits(1, 9));
  EXPECT_FALSE(reader.fits(2, 9));
  EXPECT_TRUE(reader.fits(9, 1));
  EXPECT_FALSE(reader.fits(10, 1));
  EXPECT_FALSE(reader.fits(~std::uint64_t{0}, 8));  // no product to overflow
  ASSERT_TRUE(reader.u32().has_value());
  EXPECT_EQ(reader.remaining(), 5u);
  EXPECT_TRUE(reader.fits(5, 1));
  EXPECT_FALSE(reader.fits(1, 6));
}

}  // namespace
}  // namespace p2prank::util
