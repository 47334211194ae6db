// Wire encoding of score-exchange messages.
//
// Section 4.5 assumes the naive format: "<url_from, url_to, score> ...
// Given an average URL size of 40 bytes, the average size of one link is
// roughly 100 bytes", and its conclusion names compression as future work.
// This module implements that future work:
//
//   * varint (LEB128) integer coding (util/bytes.hpp),
//   * front-coding of URLs — records sorted by (url_from, url_to) share
//     long prefixes (hash-by-site means a ranker's outgoing records are
//     dominated by a handful of sites), so each URL stores only
//     (shared-prefix length, suffix);
//   * optional lossy score quantization to a configurable number of
//     significant bits (rank exchange tolerates small absolute error — the
//     iteration is a contraction and the send threshold already bounds
//     per-entry staleness).
//
// encode/decode round-trip exactly (bit-exact scores when quantization is
// off). The ablation_compression bench measures the resulting bytes/record
// against the paper's 100-byte estimate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace p2prank::transport {

/// One <url_from, url_to, score> record (views into caller-owned storage
/// when encoding).
struct ScoreRecord {
  std::string_view url_from;
  std::string_view url_to;
  double score = 0.0;
};

/// Decoded record owning its strings.
struct OwnedScoreRecord {
  std::string url_from;
  std::string url_to;
  double score = 0.0;
};

struct WireOptions {
  /// Sort + front-code URLs (lossless). Off stores every URL in full.
  bool front_coding = true;
  /// 0 = exact 8-byte scores. Otherwise scores are stored as
  /// round(score · 2^quantize_bits) in a varint — absolute error is at most
  /// 2^-(quantize_bits+1). 20 bits keeps error below 5e-7.
  int quantize_bits = 0;
};

/// Encode a batch of records (one exchange message). The input span is not
/// modified; encoding sorts an index internally when front-coding.
[[nodiscard]] std::vector<std::uint8_t> encode_records(
    std::span<const ScoreRecord> records, const WireOptions& opts = {});

/// Decode a batch. Order matches encoding order (sorted when front-coded).
/// Throws std::runtime_error on a truncated or malformed batch, including a
/// varint not in the minimal form the encoder writes (util/bytes.hpp), a
/// flag bit other than front coding, and a nonzero shared-prefix length in
/// a batch without front coding.
[[nodiscard]] std::vector<OwnedScoreRecord> decode_records(
    std::span<const std::uint8_t> bytes);

/// The paper's back-of-envelope estimate for one record (Section 4.5).
inline constexpr double kNaiveRecordBytes = 100.0;

}  // namespace p2prank::transport
