// Tests for the versioned, checksummed Y-slice wire frame (frame.hpp) and
// the per-directed-link fault plane (fault_plane.hpp): round-trips, every
// quarantine verdict, an exhaustive byte-flip sweep (no corrupted frame may
// ever decode kOk), and the cut/corruption semantics the chaos harness and
// RecoverySupervisor rely on (DESIGN.md §13).
#include "transport/frame.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "test_support.hpp"
#include "transport/fault_plane.hpp"
#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace p2prank::transport {
namespace {

using Entries = std::vector<std::pair<std::uint32_t, double>>;

const Entries kEntries = {{0, 0.15}, {3, 1.25}, {4, 0.0}, {90, 2.5e-7}};
const FrameHeader kHeader = {/*src=*/2, /*dst=*/5, /*epoch=*/41,
                             /*record_count=*/17};

/// Re-stamp the trailing checksum after a deliberate header patch, so the
/// test observes the *header* verdict rather than kBadChecksum.
void restamp_checksum(std::vector<std::uint8_t>& frame) {
  const std::uint64_t sum = util::fnv1a(std::string_view(
      reinterpret_cast<const char*>(frame.data()), frame.size() - 8));
  for (int i = 0; i < 8; ++i) {
    frame[frame.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

TEST(Frame, RoundTripsExactly) {
  const auto bytes = encode_frame(kHeader, kEntries);
  DecodedFrame decoded;
  ASSERT_EQ(decode_frame(bytes, decoded), FrameVerdict::kOk);
  EXPECT_EQ(decoded.header.src, kHeader.src);
  EXPECT_EQ(decoded.header.dst, kHeader.dst);
  EXPECT_EQ(decoded.header.epoch, kHeader.epoch);
  EXPECT_EQ(decoded.header.record_count, kHeader.record_count);
  ASSERT_EQ(decoded.entries.size(), kEntries.size());
  for (std::size_t i = 0; i < kEntries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].first, kEntries[i].first);
    EXPECT_DOUBLE_EQ(decoded.entries[i].second, kEntries[i].second);
  }
}

TEST(Frame, EmptyEntriesRoundTrip) {
  const auto bytes = encode_frame(kHeader, {});
  DecodedFrame decoded;
  ASSERT_EQ(decode_frame(bytes, decoded), FrameVerdict::kOk);
  EXPECT_TRUE(decoded.entries.empty());
  EXPECT_EQ(decoded.header.epoch, kHeader.epoch);
}

TEST(Frame, EveryPrefixTruncationQuarantined) {
  const auto bytes = encode_frame(kHeader, kEntries);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    DecodedFrame decoded;
    const auto verdict =
        decode_frame(std::span(bytes.data(), len), decoded);
    EXPECT_NE(verdict, FrameVerdict::kOk) << "prefix length " << len;
  }
}

TEST(Frame, EverySingleByteFlipQuarantined) {
  // The exhaustive sweep behind the "zero applied corrupt frames"
  // invariant: whatever single byte the fault plane flips, the checksum
  // (or an earlier header check) must catch it.
  const auto bytes = encode_frame(kHeader, kEntries);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                    std::uint8_t{0xff}}) {
      auto flipped = bytes;
      flipped[i] ^= mask;
      DecodedFrame decoded;
      EXPECT_NE(decode_frame(flipped, decoded), FrameVerdict::kOk)
          << "byte " << i << " ^ " << int{mask} << " decoded clean";
    }
  }
}

TEST(Frame, BadMagicNamed) {
  auto bytes = encode_frame(kHeader, kEntries);
  bytes[0] ^= 0xff;
  restamp_checksum(bytes);
  DecodedFrame decoded;
  EXPECT_EQ(decode_frame(bytes, decoded), FrameVerdict::kBadMagic);
}

TEST(Frame, BadVersionNamed) {
  auto bytes = encode_frame(kHeader, kEntries);
  // kFrameVersion = 1 encodes as the single varint byte right after the
  // 4-byte magic ("p2prank-frame v1" wire format).
  ASSERT_EQ(bytes[4], 1u);
  bytes[4] = 2;
  restamp_checksum(bytes);
  DecodedFrame decoded;
  EXPECT_EQ(decode_frame(bytes, decoded), FrameVerdict::kBadVersion);
}

TEST(Frame, BadChecksumNamed) {
  auto bytes = encode_frame(kHeader, kEntries);
  bytes[bytes.size() - 1] ^= 0x55;  // corrupt the trailer itself
  DecodedFrame decoded;
  EXPECT_EQ(decode_frame(bytes, decoded), FrameVerdict::kBadChecksum);
}

TEST(Frame, PayloadShapeRejectedEvenWithValidChecksum) {
  // encode_frame trusts its caller, so a buggy sender could emit a
  // checksum-valid frame with a garbage payload; decode still refuses it.
  DecodedFrame decoded;
  const Entries nan_score = {{0, std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_EQ(decode_frame(encode_frame(kHeader, nan_score), decoded),
            FrameVerdict::kBadScore);
  const Entries negative = {{0, -0.25}};
  EXPECT_EQ(decode_frame(encode_frame(kHeader, negative), decoded),
            FrameVerdict::kBadScore);
  const Entries duplicate_index = {{3, 0.5}, {3, 0.5}};
  EXPECT_EQ(decode_frame(encode_frame(kHeader, duplicate_index), decoded),
            FrameVerdict::kBadIndexOrder);
}

TEST(Frame, NonMinimalVarintsQuarantinedUnderAValidChecksum) {
  const auto bytes = encode_frame(kHeader, kEntries);
  // Magic (4 bytes), version, src, dst, then the epoch.
  ASSERT_EQ(bytes[7], kHeader.epoch);
  // Both spell epoch 41 in a reader that tolerates them, and neither is
  // what the encoder writes.
  const std::vector<std::uint8_t> padded{0xa9, 0x00};
  const std::vector<std::uint8_t> tenth_byte_0x7e{0xa9, 0x80, 0x80, 0x80, 0x80,
                                                  0x80, 0x80, 0x80, 0x80, 0x7e};
  for (const auto& epoch : {padded, tenth_byte_0x7e}) {
    auto forged = test::splice(bytes, 7, epoch);
    restamp_checksum(forged);
    DecodedFrame decoded;
    EXPECT_EQ(decode_frame(forged, decoded), FrameVerdict::kTruncated)
        << epoch.size() << "-byte epoch";
  }
}

TEST(Frame, WrappingIndexDeltaQuarantined) {
  const Entries ascending = {{5, 0.5}, {6, 0.5}};
  const auto bytes = encode_frame(kHeader, ascending);
  // Magic and six one-byte header varints fill bytes 0-9; delta 5 is byte
  // 10 and its score 11-18.
  ASSERT_EQ(bytes[19], 1u);  // the second delta
  // 2^64 - 3: a sum that wraps would land on index 2, after index 5.
  const std::vector<std::uint8_t> wrapping{0xfd, 0xff, 0xff, 0xff, 0xff,
                                           0xff, 0xff, 0xff, 0xff, 0x01};
  auto forged = test::splice(bytes, 19, wrapping);
  restamp_checksum(forged);
  DecodedFrame decoded;
  EXPECT_EQ(decode_frame(forged, decoded), FrameVerdict::kBadIndexOrder);
}

TEST(Frame, GroupIdPastUint32Quarantined) {
  const auto bytes = encode_frame(kHeader, kEntries);
  // Magic (4 bytes) and version, then src and dst.
  ASSERT_EQ(bytes[5], kHeader.src);
  ASSERT_EQ(bytes[6], kHeader.dst);
  // 2^32 + 3 once narrowed to group 3 and decoded kOk.
  std::vector<std::uint8_t> wide;
  util::put_varint(wide, (std::uint64_t{1} << 32) + 3);
  for (const std::size_t at : {std::size_t{5}, std::size_t{6}}) {
    auto forged = test::splice(bytes, at, wide);
    restamp_checksum(forged);
    DecodedFrame decoded;
    EXPECT_EQ(decode_frame(forged, decoded), FrameVerdict::kBadAddress)
        << (at == 5 ? "src" : "dst");
  }
  EXPECT_STREQ(frame_verdict_name(FrameVerdict::kBadAddress), "bad-address");
}

TEST(Frame, EntriesValidMatchesDecodeRules) {
  EXPECT_TRUE(entries_valid(std::span<const std::pair<std::uint32_t, double>>(
      kEntries.data(), kEntries.size())));
  const Entries unordered = {{4, 0.5}, {2, 0.5}};
  EXPECT_FALSE(entries_valid(
      std::span<const std::pair<std::uint32_t, double>>(unordered)));
  const Entries infinite = {{0, std::numeric_limits<double>::infinity()}};
  EXPECT_FALSE(entries_valid(
      std::span<const std::pair<std::uint32_t, double>>(infinite)));
}

// --- Fault plane --------------------------------------------------------

TEST(FaultPlane, HardCutIsAsymmetricAndDirected) {
  FaultPlane plane(7);
  plane.set_partition(/*side_a_mask=*/0b1, /*deliver_ab=*/0.0,
                      /*deliver_ba=*/1.0);
  EXPECT_TRUE(plane.partitioned());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(plane.deliver(0, 1)) << "A->B must be a hard cut";
    EXPECT_TRUE(plane.deliver(1, 0)) << "B->A stays clean";
    EXPECT_TRUE(plane.deliver(1, 2)) << "B-internal link never crosses";
  }
  EXPECT_EQ(plane.partition_drops(), 50u);
  // The deterministic probe mirrors exactly the hard directions — no draw.
  EXPECT_FALSE(plane.link_up(0, 1));
  EXPECT_TRUE(plane.link_up(1, 0));
  EXPECT_TRUE(plane.link_up(1, 2));
}

TEST(FaultPlane, HealRestoresEveryLink) {
  FaultPlane plane(7);
  plane.set_partition(0b11, 0.0, 0.0);
  EXPECT_FALSE(plane.deliver(0, 2));
  EXPECT_FALSE(plane.deliver(2, 1));
  plane.heal();
  EXPECT_FALSE(plane.partitioned());
  EXPECT_TRUE(plane.deliver(0, 2));
  EXPECT_TRUE(plane.deliver(2, 1));
  EXPECT_TRUE(plane.link_up(0, 2));
}

TEST(FaultPlane, GroupsBeyondMaskWidthAreSideB) {
  FaultPlane plane(7);
  plane.set_partition(0b1, 0.0, 0.0);
  // Group 70 cannot be on side A (mask is 64 bits): 70 -> 0 crosses B→A.
  EXPECT_FALSE(plane.deliver(70, 0));
  EXPECT_TRUE(plane.deliver(70, 1));  // B-internal
}

TEST(FaultPlane, CorruptionIsSeededAndBounded) {
  const auto bytes = encode_frame(kHeader, kEntries);
  FaultPlane a(99);
  FaultPlane b(99);
  a.set_corruption(1.0);
  b.set_corruption(1.0);
  for (int i = 0; i < 20; ++i) {
    auto fa = bytes;
    auto fb = bytes;
    EXPECT_TRUE(a.maybe_corrupt(fa));
    EXPECT_TRUE(b.maybe_corrupt(fb));
    EXPECT_EQ(fa, fb) << "same seed must corrupt identically";
    EXPECT_NE(fa, bytes) << "corruption must change the frame";
    std::size_t changed = 0;
    for (std::size_t j = 0; j < bytes.size(); ++j) {
      if (fa[j] != bytes[j]) ++changed;
    }
    EXPECT_GE(changed, 1u);
    EXPECT_LE(changed, 4u);
    DecodedFrame decoded;
    EXPECT_NE(decode_frame(fa, decoded), FrameVerdict::kOk)
        << "flipped frame decoded clean on round " << i;
  }
  EXPECT_EQ(a.frames_corrupted(), 20u);
}

TEST(FaultPlane, CorruptionDisabledNeverTouchesTheFrame) {
  FaultPlane plane(5);
  auto frame = encode_frame(kHeader, kEntries);
  const auto original = frame;
  EXPECT_FALSE(plane.corruption_enabled());
  EXPECT_FALSE(plane.maybe_corrupt(frame));
  EXPECT_EQ(frame, original);
  plane.set_corruption(0.0);
  EXPECT_FALSE(plane.corruption_enabled());
}

}  // namespace
}  // namespace p2prank::transport
