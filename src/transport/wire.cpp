#include "transport/wire.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "util/bytes.hpp"

namespace p2prank::transport {

namespace {

// Format:
//   varint header_flags   (bit 0: front coding)
//   varint quantize_bits
//   varint record_count
//   per record:
//     varint shared_from, varint suffix_from_len, suffix bytes
//     varint shared_to,   varint suffix_to_len,   suffix bytes
//     score: varint zigzag(round(score·2^q))  when quantized,
//            8 little-endian bytes            otherwise

constexpr std::uint64_t kFlagFrontCoding = 1;

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

std::size_t shared_prefix(std::string_view a, std::string_view b) noexcept {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

void put_front_coded(std::vector<std::uint8_t>& out, std::string_view prev,
                     std::string_view cur, bool front_coding) {
  const std::size_t shared = front_coding ? shared_prefix(prev, cur) : 0;
  util::put_varint(out, shared);
  util::put_varint(out, cur.size() - shared);
  util::put_bytes(out, cur.substr(shared));
}

/// The value of a read, or the decoder's documented error.
template <class T>
T need(std::optional<T> read) {
  if (!read) throw std::runtime_error("wire: truncated or malformed batch");
  return *read;
}

/// One front-coded URL: `prev`'s first `shared` bytes, then the suffix.
/// Without front coding the encoder writes shared = 0, so nothing else is
/// accepted.
std::string read_front_coded(util::ByteReader& reader, std::string_view prev,
                             bool front_coding) {
  const std::uint64_t shared = need(reader.varint());
  const std::uint64_t suffix = need(reader.varint());
  if (shared > prev.size() || (!front_coding && shared != 0)) {
    throw std::runtime_error("wire: bad shared prefix");
  }
  std::string url(prev.substr(0, shared));
  url += need(reader.bytes(suffix));
  return url;
}

}  // namespace

std::vector<std::uint8_t> encode_records(std::span<const ScoreRecord> records,
                                         const WireOptions& opts) {
  if (opts.quantize_bits < 0 || opts.quantize_bits > 40) {
    throw std::invalid_argument("wire: quantize_bits out of [0, 40]");
  }
  // Front coding wants records sorted by (url_from, url_to).
  std::vector<std::uint32_t> order(records.size());
  std::iota(order.begin(), order.end(), 0);
  if (opts.front_coding) {
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (records[a].url_from != records[b].url_from) {
        return records[a].url_from < records[b].url_from;
      }
      return records[a].url_to < records[b].url_to;
    });
  }

  std::vector<std::uint8_t> out;
  out.reserve(records.size() * 32 + 16);
  util::put_varint(out, opts.front_coding ? kFlagFrontCoding : 0);
  util::put_varint(out, static_cast<std::uint64_t>(opts.quantize_bits));
  util::put_varint(out, records.size());

  const double scale = std::ldexp(1.0, opts.quantize_bits);
  std::string_view prev_from;
  std::string_view prev_to;
  for (const std::uint32_t idx : order) {
    const ScoreRecord& r = records[idx];
    put_front_coded(out, prev_from, r.url_from, opts.front_coding);
    put_front_coded(out, prev_to, r.url_to, opts.front_coding);
    if (opts.quantize_bits > 0) {
      util::put_varint(out, zigzag(std::llround(r.score * scale)));
    } else {
      util::put_f64(out, r.score);
    }
    prev_from = r.url_from;
    prev_to = r.url_to;
  }
  return out;
}

std::vector<OwnedScoreRecord> decode_records(std::span<const std::uint8_t> bytes) {
  util::ByteReader reader(bytes);
  // Only the bits the encoder writes: anything else is not a batch this
  // version produced, and decoding it anyway would not round-trip.
  const std::uint64_t flags = need(reader.varint());
  if ((flags & ~kFlagFrontCoding) != 0) throw std::runtime_error("wire: bad flags");
  const bool front_coding = (flags & kFlagFrontCoding) != 0;
  const std::uint64_t quantize_bits = need(reader.varint());
  if (quantize_bits > 40) throw std::runtime_error("wire: bad quantize_bits");
  const std::uint64_t count = need(reader.varint());
  // Every record consumes at least 5 bytes, so a count beyond that is
  // malformed — reject it before reserving (hostile headers must not drive
  // allocation).
  if (!reader.fits(count, 5)) {
    throw std::runtime_error("wire: record count exceeds payload");
  }

  const double inv_scale =
      quantize_bits > 0 ? std::ldexp(1.0, -static_cast<int>(quantize_bits)) : 0.0;
  std::vector<OwnedScoreRecord> records;
  records.reserve(count);
  std::string prev_from;
  std::string prev_to;
  for (std::uint64_t i = 0; i < count; ++i) {
    OwnedScoreRecord r;
    r.url_from = read_front_coded(reader, prev_from, front_coding);
    r.url_to = read_front_coded(reader, prev_to, front_coding);
    if (quantize_bits > 0) {
      r.score = static_cast<double>(unzigzag(need(reader.varint()))) * inv_scale;
    } else {
      r.score = need(reader.f64());
    }
    prev_from = r.url_from;
    prev_to = r.url_to;
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace p2prank::transport
