#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_stats.hpp"
#include "graph/synthetic_web.hpp"
#include "test_support.hpp"

namespace p2prank::graph {
namespace {

TEST(GraphIo, RoundTripsTinyGraph) {
  const auto g = test::leaky_pair();
  std::stringstream buffer;
  save_graph(g, buffer);
  const auto loaded = load_graph(buffer);

  EXPECT_EQ(loaded.num_pages(), g.num_pages());
  EXPECT_EQ(loaded.num_links(), g.num_links());
  EXPECT_EQ(loaded.num_external_links(), g.num_external_links());
  const auto a = loaded.find("s.edu/a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(loaded.external_out_degree(*a), 1u);
  EXPECT_EQ(loaded.out_degree(*a), 2u);
}

TEST(GraphIo, RoundTripsSyntheticCrawl) {
  const auto g = generate_synthetic_web(google2002_config(3000, 21));
  std::stringstream buffer;
  save_graph(g, buffer);
  const auto loaded = load_graph(buffer);

  EXPECT_EQ(loaded.num_pages(), g.num_pages());
  EXPECT_EQ(loaded.num_links(), g.num_links());
  EXPECT_EQ(loaded.num_external_links(), g.num_external_links());
  EXPECT_EQ(loaded.num_sites(), g.num_sites());

  const auto s1 = compute_stats(g);
  const auto s2 = compute_stats(loaded);
  EXPECT_EQ(s1.intra_site_links, s2.intra_site_links);
  EXPECT_EQ(s1.dangling_pages, s2.dangling_pages);
}

TEST(GraphIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "\n"
      "P s.edu/a s.edu\n"
      "P s.edu/b s.edu\n"
      "L s.edu/a s.edu/b\n");
  const auto g = load_graph(in);
  EXPECT_EQ(g.num_pages(), 2u);
  EXPECT_EQ(g.num_links(), 1u);
}

TEST(GraphIo, LinkToUndeclaredTargetBecomesExternal) {
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "L s.edu/a other.com/x\n");
  const auto g = load_graph(in);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_EQ(g.num_external_links(), 1u);
}

TEST(GraphIo, XRecordAccumulatesExternalCount) {
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "X s.edu/a 5\n");
  const auto g = load_graph(in);
  const auto a = g.find("s.edu/a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(g.external_out_degree(*a), 5u);
}

TEST(GraphIo, RejectsUnknownTag) {
  std::stringstream in("Q wat\n");
  EXPECT_THROW(load_graph(in), std::runtime_error);
}

TEST(GraphIo, RejectsMalformedRecords) {
  std::stringstream p_bad("P only-url\n");
  EXPECT_THROW(load_graph(p_bad), std::runtime_error);
  std::stringstream l_bad("L one\n");
  EXPECT_THROW(load_graph(l_bad), std::runtime_error);
  std::stringstream x_bad("X url notanumber\n");
  EXPECT_THROW(load_graph(x_bad), std::runtime_error);
}

TEST(GraphIo, RejectsUndeclaredLinkSource) {
  std::stringstream in("L ghost.edu/a ghost.edu/b\n");
  EXPECT_THROW(load_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorMessagesCarryLineNumbers) {
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "BAD record\n");
  try {
    (void)load_graph(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GraphIo, RejectsTrailingTokens) {
  std::stringstream p_bad("P s.edu/a s.edu extra\n");
  EXPECT_THROW(load_graph(p_bad), std::runtime_error);
  std::stringstream l_bad(
      "P s.edu/a s.edu\n"
      "L s.edu/a s.edu/a junk\n");
  EXPECT_THROW(load_graph(l_bad), std::runtime_error);
  std::stringstream x_bad(
      "P s.edu/a s.edu\n"
      "X s.edu/a 3 junk\n");
  EXPECT_THROW(load_graph(x_bad), std::runtime_error);
}

TEST(GraphIo, RejectsZeroCountXRecord) {
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "X s.edu/a 0\n");
  try {
    (void)load_graph(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(GraphIo, ConflictingPageRecordsCarryLineNumber) {
  // Same URL declared under two different sites: the builder's conflict
  // throw must surface as a line-numbered parse error, not invalid_argument.
  std::stringstream in(
      "P s.edu/a s.edu\n"
      "P s.edu/a other.edu\n");
  try {
    (void)load_graph(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("conflicting"), std::string::npos);
  }
}

TEST(GraphIo, FileRoundTrip) {
  const auto g = test::two_cycle();
  const std::string path = ::testing::TempDir() + "/p2prank_io_test.graph";
  save_graph_file(g, path);
  const auto loaded = load_graph_file(path);
  EXPECT_EQ(loaded.num_pages(), 2u);
  EXPECT_EQ(loaded.num_links(), 2u);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_graph_file("/nonexistent/path.graph"), std::runtime_error);
}

/// Binary round trips must reproduce the text-built graph exactly —
/// identity, CSR rows, and externals.
void expect_binary_round_trip(const WebGraph& g) {
  std::stringstream buffer;
  save_graph_binary(g, buffer);
  const auto loaded = load_graph_binary(buffer);
  ASSERT_EQ(loaded.num_pages(), g.num_pages());
  ASSERT_EQ(loaded.num_sites(), g.num_sites());
  ASSERT_EQ(loaded.num_links(), g.num_links());
  ASSERT_EQ(loaded.num_external_links(), g.num_external_links());
  for (PageId p = 0; p < g.num_pages(); ++p) {
    ASSERT_EQ(loaded.url(p), g.url(p));
    ASSERT_EQ(loaded.site_name(loaded.site(p)), g.site_name(g.site(p)));
    ASSERT_EQ(loaded.external_out_degree(p), g.external_out_degree(p));
    const auto out_a = loaded.out_links(p);
    const auto out_b = g.out_links(p);
    ASSERT_EQ(std::vector<PageId>(out_a.begin(), out_a.end()),
              std::vector<PageId>(out_b.begin(), out_b.end()));
    const auto in_a = loaded.in_links(p);
    const auto in_b = g.in_links(p);
    ASSERT_EQ(std::vector<PageId>(in_a.begin(), in_a.end()),
              std::vector<PageId>(in_b.begin(), in_b.end()));
  }
}

TEST(GraphBinaryIo, RoundTripsTinyAndEmptyGraphs) {
  expect_binary_round_trip(test::leaky_pair());
  expect_binary_round_trip(test::two_cycle());
  GraphBuilder empty;
  expect_binary_round_trip(std::move(empty).build());
}

/// Two sites, two pages, a parallel edge and externals: a small graph
/// whose encoding has every p2pgrb1 section.
WebGraph parallel_edges_and_externals() {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("t.edu/b", "t.edu");
  b.add_link(a, c);
  b.add_link(a, c);
  b.add_link(c, a);
  b.add_external_link(a, 7);
  return std::move(b).build();
}

std::string binary_of(const WebGraph& g) {
  std::stringstream buffer;
  save_graph_binary(g, buffer);
  return buffer.str();
}

/// Loads `bytes` through both entries — the byte-span decoder and the
/// stream entry that stages into it — and requires one outcome: the same
/// graph, or the same std::runtime_error (rethrown).
WebGraph load_binary(const std::string& bytes) {
  std::optional<WebGraph> from_span;
  std::string span_error;
  try {
    from_span = load_graph_binary(std::span(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  } catch (const std::runtime_error& e) {
    span_error = e.what();
  }
  std::stringstream in(bytes);
  try {
    WebGraph g = load_graph_binary(in);
    EXPECT_TRUE(from_span.has_value()) << "only the span entry threw: " << span_error;
    if (from_span) {
      EXPECT_EQ(binary_of(*from_span), binary_of(g));
    }
    return g;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(span_error, e.what()) << "the entries disagree";
    throw;
  }
}

// parallel_edges_and_externals() encodes to 95 bytes: the 40-byte header,
// site names to 58, site ids to 66, urls to 88, external counts 7 and 0 at
// 88-89, page 0's row (degree 2, gaps 1 and 0) at 90-92, page 1's row
// (degree 1, target 0) at 93-94.
constexpr std::size_t kFirstSiteLength = 40;
constexpr std::size_t kFirstUrlLength = 66;
constexpr std::size_t kFirstExternal = 88;
constexpr std::size_t kSecondGap = 92;

/// `bytes` with the one-byte varint at `at` replaced by `varint`.
std::string splice(std::string bytes, std::size_t at,
                   const std::vector<unsigned char>& varint) {
  return bytes.replace(at, 1, std::string(varint.begin(), varint.end()));
}

TEST(GraphBinaryIo, RoundTripsParallelEdgesAndExternals) {
  expect_binary_round_trip(parallel_edges_and_externals());
}

TEST(GraphBinaryIo, RoundTripsSyntheticCrawl) {
  expect_binary_round_trip(generate_synthetic_web(google2002_config(2000, 33)));
}

TEST(GraphBinaryIo, FileRoundTrip) {
  const auto g = test::leaky_pair();
  const std::string path = ::testing::TempDir() + "/p2prank_io_test.bin";
  save_graph_binary_file(g, path);
  const auto loaded = load_graph_binary_file(path);
  EXPECT_EQ(loaded.num_pages(), g.num_pages());
  EXPECT_EQ(loaded.num_links(), g.num_links());
  EXPECT_EQ(loaded.num_external_links(), g.num_external_links());
}

TEST(GraphBinaryIo, RejectsBadMagic) {
  EXPECT_THROW((void)load_binary("notmagic and then some bytes"), std::runtime_error);
}

TEST(GraphBinaryIo, RejectsTruncatedAndTrailingStreams) {
  const std::string bytes = binary_of(test::two_cycle());
  EXPECT_THROW((void)load_binary(bytes.substr(0, bytes.size() - 3)), std::runtime_error);
  EXPECT_THROW((void)load_binary(bytes + "x"), std::runtime_error);
}

TEST(GraphBinaryIo, FileEntryRejectsTruncatedFiles) {
  // The file entry reads the whole file and decodes it with the same
  // decoder: a truncated file fails as a truncated stream does.
  const std::string bytes = binary_of(test::two_cycle());
  const std::string path = ::testing::TempDir() + "/p2prank_io_truncated.bin";
  std::ofstream(path, std::ios::binary) << bytes.substr(0, bytes.size() - 3);
  EXPECT_THROW((void)load_graph_binary_file(path), std::runtime_error);
  EXPECT_THROW((void)load_graph_binary_file(path + ".absent"), std::runtime_error);
}

/// A p2pgrb1 header claiming `pages` / `sites` / `links` (no externals)
/// with nothing behind it. The loader must reject the claim with its
/// documented runtime_error before sizing an allocation from it — not
/// with bad_alloc or length_error, and not after zero-filling gigabytes.
std::string forged_header(std::uint64_t pages, std::uint64_t sites,
                          std::uint64_t links) {
  std::string bytes("p2pgrb1\n");
  for (const std::uint64_t count : {pages, sites, links, std::uint64_t{0}}) {
    char raw[8];
    std::memcpy(raw, &count, 8);
    bytes.append(raw, 8);
  }
  return bytes;
}

TEST(GraphBinaryIo, RejectsForgedSiteCount) {
  EXPECT_THROW((void)load_binary(forged_header(0, std::uint64_t{1} << 40, 0)),
               std::runtime_error);
}

TEST(GraphBinaryIo, RejectsForgedSiteCountBeyondVectorMaxSize) {
  EXPECT_THROW((void)load_binary(forged_header(0, std::uint64_t{1} << 62, 0)),
               std::runtime_error);
}

TEST(GraphBinaryIo, RejectsForgedLinkCount) {
  EXPECT_THROW((void)load_binary(forged_header(0, 0, std::uint64_t{1} << 60)),
               std::runtime_error);
}

TEST(GraphBinaryIo, RejectsForgedPageCount) {
  EXPECT_THROW((void)load_binary(forged_header(std::uint64_t{1} << 31, 0, 0)),
               std::runtime_error);
}

TEST(GraphBinaryIo, RejectsNameLengthBeyondTheStream) {
  // A length prefix of 2^32 - 1 claims more bytes than the stream holds:
  // the loader's runtime_error, not an allocation sized from the claim.
  const std::string bytes = binary_of(parallel_edges_and_externals());
  ASSERT_EQ(bytes.substr(kFirstSiteLength + 4, 5), "s.edu");
  ASSERT_EQ(bytes.substr(kFirstUrlLength + 4, 7), "s.edu/a");
  for (const std::size_t at : {kFirstSiteLength, kFirstUrlLength}) {
    std::string forged = bytes;
    forged.replace(at, 4, std::string(4, '\xff'));
    try {
      (void)load_binary(forged);
      ADD_FAILURE() << "loaded a name length of 2^32 - 1 at byte " << at;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("load_graph_binary: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(GraphBinaryIo, RejectsNonMinimalVarints) {
  const std::string bytes = binary_of(parallel_edges_and_externals());
  ASSERT_EQ(bytes.size(), 95u);
  ASSERT_EQ(bytes[kFirstExternal], 7);
  // Both spell the external count 7 in a reader that tolerates them, and
  // neither is what the writer emits, so a load would re-save other bytes.
  const std::vector<unsigned char> padded{0x87, 0x00};
  const std::vector<unsigned char> tenth_byte_0x7e{0x87, 0x80, 0x80, 0x80, 0x80,
                                                   0x80, 0x80, 0x80, 0x80, 0x7e};
  for (const auto& count : {padded, tenth_byte_0x7e}) {
    EXPECT_THROW((void)load_binary(splice(bytes, kFirstExternal, count)),
                 std::runtime_error)
        << count.size() << "-byte count";
  }
}

TEST(GraphBinaryIo, RejectsWrappingLinkGap) {
  const std::string bytes = binary_of(parallel_edges_and_externals());
  ASSERT_EQ(bytes[kSecondGap], 0);  // the parallel edge 0 -> 1
  // 2^64 - 1: a sum that wraps would land on page 0 after page 1 and load
  // an unsorted row.
  const std::vector<unsigned char> wrapping{0xff, 0xff, 0xff, 0xff, 0xff,
                                            0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_THROW((void)load_binary(splice(bytes, kSecondGap, wrapping)),
               std::runtime_error);
}

/// Loads `bytes` and expects the loader's runtime_error naming `repeat`.
void expect_repeat_rejected(const std::string& bytes, const std::string& repeat) {
  try {
    (void)load_binary(bytes);
    ADD_FAILURE() << "loaded a page table that repeats '" << repeat << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + repeat + "'"), std::string::npos)
        << e.what();
  }
}

TEST(GraphBinaryIo, RejectsRepeatedUrl) {
  // Two pages both named a.edu/x would make find() see page 0 only, and a
  // text round trip would fold them into one page with a self-loop.
  GraphBuilder b;
  const auto x = b.add_page("a.edu/x", "a.edu");
  const auto y = b.add_page("a.edu/y", "a.edu");
  b.add_link(x, y);
  std::string bytes = binary_of(std::move(b).build());
  const auto at = bytes.find("a.edu/y");
  ASSERT_NE(at, std::string::npos);
  expect_repeat_rejected(bytes.replace(at, 7, "a.edu/x"), "a.edu/x");
}

TEST(GraphBinaryIo, RejectsRepeatedSiteName) {
  // Two sites both named a.edu would merge on a text round trip and turn
  // the cross-site link intra-site.
  GraphBuilder b;
  const auto x = b.add_page("a.edu/x", "a.edu");
  const auto y = b.add_page("b.edu/y", "b.edu");
  b.add_link(x, y);
  std::string bytes = binary_of(std::move(b).build());
  const auto at = bytes.find("b.edu");  // the site table precedes the URLs
  ASSERT_NE(at, std::string::npos);
  ASSERT_LT(at, bytes.find("a.edu/x"));
  expect_repeat_rejected(bytes.replace(at, 5, "a.edu"), "a.edu");
}

TEST(GraphBinaryIo, EveryPrefixTruncationThrows) {
  const std::string bytes = binary_of(parallel_edges_and_externals());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)load_binary(bytes.substr(0, len)), std::runtime_error)
        << "prefix length " << len;
  }
}

TEST(GraphBinaryIo, EverySingleByteFlipReloadsIdenticallyOrThrows) {
  // Mirrors Frame.EverySingleByteFlipQuarantined. p2pgrb1 has no checksum,
  // so a flipped stream may load — but then it must re-save to exactly its
  // own bytes; otherwise the only failure allowed is std::runtime_error.
  const std::string bytes = binary_of(parallel_edges_and_externals());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : {static_cast<unsigned char>(0x01),
                                     static_cast<unsigned char>(0x80),
                                     static_cast<unsigned char>(0xff)}) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      try {
        EXPECT_EQ(binary_of(load_binary(flipped)), flipped)
            << "byte " << i << " ^ " << int{mask};
      } catch (const std::runtime_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "byte " << i << " ^ " << int{mask} << " threw "
                      << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace p2prank::graph
