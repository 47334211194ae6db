#include "transport/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_support.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace p2prank::transport {
namespace {

std::vector<ScoreRecord> views_of(const std::vector<OwnedScoreRecord>& owned) {
  std::vector<ScoreRecord> views;
  views.reserve(owned.size());
  for (const auto& r : owned) views.push_back({r.url_from, r.url_to, r.score});
  return views;
}

std::vector<OwnedScoreRecord> sample_records(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<OwnedScoreRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    OwnedScoreRecord r;
    r.url_from = "site" + std::to_string(rng.below(20)) + ".edu/page" +
                 std::to_string(rng.below(500)) + ".html";
    r.url_to = "site" + std::to_string(rng.below(20)) + ".edu/page" +
               std::to_string(rng.below(500)) + ".html";
    r.score = rng.uniform() * 3.0;
    records.push_back(std::move(r));
  }
  return records;
}

TEST(Wire, EmptyBatchRoundTrips) {
  const auto bytes = encode_records({});
  const auto decoded = decode_records(bytes);
  EXPECT_TRUE(decoded.empty());
}

TEST(Wire, SingleRecordExact) {
  const std::vector<ScoreRecord> records{
      {"alpha.edu/home", "beta.edu/index", 0.123456789}};
  const auto decoded = decode_records(encode_records(records));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].url_from, "alpha.edu/home");
  EXPECT_EQ(decoded[0].url_to, "beta.edu/index");
  EXPECT_DOUBLE_EQ(decoded[0].score, 0.123456789);
}

TEST(Wire, BatchRoundTripsExactlyWithFrontCoding) {
  const auto owned = sample_records(500, 1);
  const auto bytes = encode_records(views_of(owned));
  const auto decoded = decode_records(bytes);
  ASSERT_EQ(decoded.size(), owned.size());
  // Front coding reorders; compare as multisets via sorted copies.
  auto key = [](const OwnedScoreRecord& r) {
    return r.url_from + "|" + r.url_to + "|" + std::to_string(r.score);
  };
  std::vector<std::string> expect;
  std::vector<std::string> got;
  for (const auto& r : owned) expect.push_back(key(r));
  for (const auto& r : decoded) got.push_back(key(r));
  std::sort(expect.begin(), expect.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(expect, got);
}

TEST(Wire, NoFrontCodingPreservesOrder) {
  const auto owned = sample_records(50, 2);
  WireOptions opts;
  opts.front_coding = false;
  const auto decoded = decode_records(encode_records(views_of(owned), opts));
  ASSERT_EQ(decoded.size(), owned.size());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(decoded[i].url_from, owned[i].url_from);
    EXPECT_EQ(decoded[i].url_to, owned[i].url_to);
    EXPECT_DOUBLE_EQ(decoded[i].score, owned[i].score);
  }
}

TEST(Wire, FrontCodingShrinksSortedCrawlBatches) {
  const auto owned = sample_records(2000, 3);
  WireOptions coded;
  coded.front_coding = true;
  WireOptions plain;
  plain.front_coding = false;
  const auto coded_bytes = encode_records(views_of(owned), coded);
  const auto plain_bytes = encode_records(views_of(owned), plain);
  EXPECT_LT(coded_bytes.size(), plain_bytes.size() * 3 / 4);
}

TEST(Wire, BeatsThePapersHundredByteEstimate) {
  const auto owned = sample_records(2000, 4);
  const auto bytes = encode_records(views_of(owned));
  const double per_record = static_cast<double>(bytes.size()) /
                            static_cast<double>(owned.size());
  EXPECT_LT(per_record, kNaiveRecordBytes);
}

TEST(Wire, QuantizationBoundsAbsoluteError) {
  const auto owned = sample_records(500, 5);
  WireOptions opts;
  opts.quantize_bits = 20;
  const auto decoded = decode_records(encode_records(views_of(owned), opts));
  ASSERT_EQ(decoded.size(), owned.size());
  // Decoded order is sorted; check every score is within the bound of some
  // original by re-sorting both on (from,to).
  auto by_urls = [](const OwnedScoreRecord& a, const OwnedScoreRecord& b) {
    if (a.url_from != b.url_from) return a.url_from < b.url_from;
    return a.url_to < b.url_to;
  };
  auto sorted = owned;
  std::stable_sort(sorted.begin(), sorted.end(), by_urls);
  auto got = decoded;
  std::stable_sort(got.begin(), got.end(), by_urls);
  const double bound = std::ldexp(1.0, -20);  // 2^-quantize_bits
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_LE(std::fabs(sorted[i].score - got[i].score), bound) << i;
  }
}

TEST(Wire, QuantizationShrinksScores) {
  const auto owned = sample_records(1000, 6);
  WireOptions exact;
  WireOptions lossy;
  lossy.quantize_bits = 16;
  EXPECT_LT(encode_records(views_of(owned), lossy).size(),
            encode_records(views_of(owned), exact).size());
}

TEST(Wire, RejectsSillyQuantization) {
  EXPECT_THROW((void)encode_records({}, {.front_coding = true, .quantize_bits = -1}),
               std::invalid_argument);
  EXPECT_THROW((void)encode_records({}, {.front_coding = true, .quantize_bits = 64}),
               std::invalid_argument);
}

TEST(Wire, DecodeRejectsGarbage) {
  std::vector<std::uint8_t> garbage{0x01, 0x50, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW((void)decode_records(garbage), std::runtime_error);
}

TEST(Wire, DecodeNeverCrashesOnRandomBytes) {
  // Fuzz-lite: arbitrary byte strings must either decode or throw — no UB,
  // no unbounded allocation from hostile counts (count is bounded by the
  // remaining bytes since every record consumes at least one).
  util::Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    try {
      const auto records = decode_records(bytes);
      EXPECT_LE(records.size(), bytes.size() + 1);
    } catch (const std::runtime_error&) {
      // expected for malformed input
    }
  }
}

TEST(Wire, TruncatedValidStreamThrows) {
  const auto owned = sample_records(50, 8);
  auto bytes = encode_records(views_of(owned));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)decode_records(bytes), std::runtime_error);
}

TEST(Wire, DecodeRejectsBadSharedPrefix) {
  // Handcraft: flags=1, qbits=0, count=1, shared_from=5 (> prev "" size).
  std::vector<std::uint8_t> bytes;
  util::put_varint(bytes, 1);
  util::put_varint(bytes, 0);
  util::put_varint(bytes, 1);
  util::put_varint(bytes, 5);
  util::put_varint(bytes, 0);
  EXPECT_THROW((void)decode_records(bytes), std::runtime_error);
}

TEST(Wire, DecodeRejectsSuffixLengthPastTheEnd) {
  // A suffix length of 2^64 - 1 once wrapped the reader's `pos + n` bound
  // and escaped as std::length_error instead of the documented error.
  std::vector<std::uint8_t> bytes;
  util::put_varint(bytes, 1);  // front coding
  util::put_varint(bytes, 0);  // exact scores
  util::put_varint(bytes, 1);  // one record
  util::put_varint(bytes, 0);  // shared_from
  util::put_varint(bytes, ~std::uint64_t{0});  // suffix_from
  bytes.resize(bytes.size() + 8, 'x');
  EXPECT_THROW((void)decode_records(bytes), std::runtime_error);
}

TEST(Wire, DecodeRejectsNonMinimalVarints) {
  const std::vector<ScoreRecord> records{{"a.edu/x", "b.edu/y", 0.5}};
  const auto bytes = encode_records(records);
  ASSERT_EQ(bytes[2], 1u);  // the record count
  // Both spell the count 1 in a reader that tolerates them, and neither is
  // what the encoder writes.
  const std::vector<std::uint8_t> padded{0x81, 0x00};
  const std::vector<std::uint8_t> tenth_byte_0x7e{0x81, 0x80, 0x80, 0x80, 0x80,
                                                  0x80, 0x80, 0x80, 0x80, 0x7e};
  for (const auto& count : {padded, tenth_byte_0x7e}) {
    EXPECT_THROW((void)decode_records(test::splice(bytes, 2, count)), std::runtime_error)
        << count.size() << "-byte count";
  }
}

TEST(Wire, DecodeRejectsQuantizeBitsOutsideTheEncodersRange) {
  // 2^32 once narrowed to int 0 and decoded as an exact-score batch.
  std::vector<std::uint8_t> bytes;
  util::put_varint(bytes, 1);
  util::put_varint(bytes, std::uint64_t{1} << 32);
  util::put_varint(bytes, 0);
  EXPECT_THROW((void)decode_records(bytes), std::runtime_error);
}

TEST(Wire, DecodeRejectsUnknownFlagBits) {
  // The encoder only ever sets bit 0 (front coding). A batch with any other
  // bit once decoded as if the bit were clear, to records that re-encode to
  // different bytes.
  const std::vector<ScoreRecord> records{{"a.edu/x", "b.edu/y", 0.5}};
  for (const bool front_coding : {true, false}) {
    const auto bytes = encode_records(records, {.front_coding = front_coding});
    ASSERT_EQ(bytes[0], front_coding ? 1u : 0u);
    for (const std::uint64_t extra : {std::uint64_t{2}, std::uint64_t{0x40},
                                      std::uint64_t{1} << 40}) {
      std::vector<std::uint8_t> flags;
      util::put_varint(flags, bytes[0] | extra);
      EXPECT_THROW((void)decode_records(test::splice(bytes, 0, flags)),
                   std::runtime_error)
          << "front coding " << front_coding << ", extra flag " << extra;
    }
  }
}

TEST(Wire, DecodeRejectsSharedPrefixWithoutFrontCoding) {
  // With front coding off the encoder writes every shared length as 0. A
  // nonzero one once borrowed the previous URL's prefix anyway, and the
  // records re-encoded to different bytes.
  const std::vector<ScoreRecord> records{{"a.edu/x", "b.edu/y", 0.5},
                                         {"a.edu/z", "b.edu/w", 0.25}};
  const auto bytes = encode_records(records, {.front_coding = false});
  // Flags, bits and count, then record 0: 0, 7, "a.edu/x", 0, 7, "b.edu/y"
  // and 8 score bytes; record 1's shared_from is byte 3 + 18 + 8.
  const std::size_t shared_from = 3 + 18 + 8;
  ASSERT_EQ(bytes[shared_from], 0u);
  ASSERT_EQ(bytes[shared_from + 1], 7u);
  // Share "a.edu/" and keep the suffix length: the batch still parses to
  // the end, just with the wrong URL.
  EXPECT_THROW((void)decode_records(test::splice(bytes, shared_from, {6})),
               std::runtime_error);
}

/// Small valid batches for the sweeps: three front-coded records, with
/// exact and with quantized scores.
std::vector<std::vector<std::uint8_t>> sweep_batches() {
  const std::vector<ScoreRecord> records{{"a.edu/x", "b.edu/y", 0.5},
                                         {"a.edu/x", "b.edu/z", 1.25},
                                         {"a.edu/w", "c.edu/", 0.0}};
  return {encode_records(records),
          encode_records(records, {.front_coding = true, .quantize_bits = 20})};
}

TEST(Wire, EveryPrefixTruncationThrows) {
  for (const auto& bytes : sweep_batches()) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_THROW((void)decode_records(std::span(bytes.data(), len)),
                   std::runtime_error)
          << "prefix length " << len;
    }
  }
}

TEST(Wire, EverySingleByteFlipDecodesOrThrowsRuntimeError) {
  // Mirrors Frame.EverySingleByteFlipQuarantined: a flipped batch may still
  // decode (it has no checksum), but the only failure allowed is the
  // documented one.
  for (const auto& bytes : sweep_batches()) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                      std::uint8_t{0xff}}) {
        auto flipped = bytes;
        flipped[i] ^= mask;
        try {
          (void)decode_records(flipped);
        } catch (const std::runtime_error&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << "byte " << i << " ^ " << int{mask} << " threw "
                        << e.what();
        }
      }
    }
  }
}

}  // namespace
}  // namespace p2prank::transport
