#include "graph/graph_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/web_graph.hpp"
#include "test_support.hpp"

namespace p2prank::graph {
namespace {

TEST(GraphBuilder, AddPageIsIdempotent) {
  GraphBuilder b;
  const auto p1 = b.add_page("s.edu/a", "s.edu");
  const auto p2 = b.add_page("s.edu/a", "s.edu");
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(b.num_pages(), 1u);
}

TEST(GraphBuilder, DerivesSiteFromUrl) {
  GraphBuilder b;
  const auto p = b.add_page("http://www.x.edu/page");
  const auto g = std::move(b).build();
  EXPECT_EQ(g.site_name(g.site(p)), "www.x.edu");
}

TEST(GraphBuilder, SharedSiteGetsOneSiteId) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  const auto g = std::move(b).build();
  EXPECT_EQ(g.site(a), g.site(c));
  EXPECT_EQ(g.num_sites(), 1u);
}

TEST(GraphBuilder, BuildsCsrAdjacency) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  const auto d = b.add_page("s.edu/c", "s.edu");
  b.add_link(a, c);
  b.add_link(a, d);
  b.add_link(c, d);
  const auto g = std::move(b).build();

  EXPECT_EQ(g.num_links(), 3u);
  EXPECT_EQ(g.out_degree(a), 2u);
  EXPECT_EQ(g.out_degree(c), 1u);
  EXPECT_EQ(g.out_degree(d), 0u);
  EXPECT_TRUE(g.is_dangling(d));
  EXPECT_EQ(g.in_degree(d), 2u);

  const auto out_a = g.out_links(a);
  EXPECT_EQ(std::vector<PageId>(out_a.begin(), out_a.end()),
            (std::vector<PageId>{c, d}));
  const auto in_d = g.in_links(d);
  EXPECT_EQ(std::vector<PageId>(in_d.begin(), in_d.end()),
            (std::vector<PageId>{a, c}));
}

TEST(GraphBuilder, ExternalLinksCountTowardOutDegree) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  b.add_link(a, c);
  b.add_external_link(a, 3);
  const auto g = std::move(b).build();
  EXPECT_EQ(g.out_degree(a), 4u);
  EXPECT_EQ(g.external_out_degree(a), 3u);
  EXPECT_EQ(g.num_external_links(), 3u);
  EXPECT_EQ(g.num_links(), 1u);
}

TEST(GraphBuilder, DeferredLinkResolvesWhenTargetAppearsLater) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  b.add_link_to_url(a, "s.edu/later");
  const auto later = b.add_page("s.edu/later", "s.edu");
  const auto g = std::move(b).build();
  EXPECT_EQ(g.num_links(), 1u);
  EXPECT_EQ(g.out_links(a)[0], later);
  EXPECT_EQ(g.num_external_links(), 0u);
}

TEST(GraphBuilder, DeferredLinkToUnknownBecomesExternal) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  b.add_link_to_url(a, "elsewhere.com/never-crawled");
  const auto g = std::move(b).build();
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_EQ(g.external_out_degree(a), 1u);
}

TEST(GraphBuilder, WithoutDedupKeepsParallelEdges) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  b.add_link(a, c);
  b.add_link(a, c);
  const auto g = std::move(b).build();
  EXPECT_EQ(g.num_links(), 2u);
}

TEST(WebGraph, FindByUrl) {
  const auto g = test::two_cycle();
  const auto found = g.find("s.edu/a");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(g.url(*found), "s.edu/a");
  EXPECT_FALSE(g.find("s.edu/missing").has_value());
}

TEST(WebGraph, PagesOfSite) {
  GraphBuilder b;
  b.add_page("a.edu/1", "a.edu");
  b.add_page("b.edu/1", "b.edu");
  b.add_page("a.edu/2", "a.edu");
  const auto g = std::move(b).build();
  ASSERT_EQ(g.num_sites(), 2u);
  const auto a_pages = g.pages_of_site(0);
  EXPECT_EQ(a_pages.size(), 2u);
  for (const auto p : a_pages) EXPECT_EQ(g.site(p), 0u);
}

TEST(WebGraph, IntraSiteLinkCount) {
  GraphBuilder b;
  const auto a1 = b.add_page("a.edu/1", "a.edu");
  const auto a2 = b.add_page("a.edu/2", "a.edu");
  const auto b1 = b.add_page("b.edu/1", "b.edu");
  b.add_link(a1, a2);  // intra
  b.add_link(a1, b1);  // inter
  const auto g = std::move(b).build();
  EXPECT_EQ(g.count_intra_site_links(), 1u);
}

TEST(WebGraph, EmptyGraphIsWellFormed) {
  GraphBuilder b;
  const auto g = std::move(b).build();
  EXPECT_EQ(g.num_pages(), 0u);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_EQ(g.num_sites(), 0u);
}

TEST(GraphBuilder, ConflictingSiteReAddThrows) {
  GraphBuilder b;
  b.add_page("s.edu/a", "s.edu");
  EXPECT_THROW((void)b.add_page("s.edu/a", "other.edu"), std::invalid_argument);
  // Re-adding with the *same* site stays idempotent.
  EXPECT_EQ(b.add_page("s.edu/a", "s.edu"), 0u);
  EXPECT_EQ(b.num_pages(), 1u);
}

TEST(GraphBuilder, ExternalOverflowThrows) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  b.add_external_link(a, std::numeric_limits<std::uint32_t>::max() - 1);
  EXPECT_THROW(b.add_external_link(a, 2), std::overflow_error);
  // One more is still representable.
  b.add_external_link(a, 1);
  const auto g = std::move(b).build();
  EXPECT_EQ(g.external_out_degree(a),
            std::numeric_limits<std::uint32_t>::max());
}

TEST(GraphBuilder, OutRowsAreSortedEvenWithoutDedup) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  const auto d = b.add_page("s.edu/c", "s.edu");
  b.add_link(a, d);
  b.add_link(a, c);
  b.add_link(a, d);
  const auto g = std::move(b).build();
  const auto out = g.out_links(a);
  EXPECT_EQ(std::vector<PageId>(out.begin(), out.end()),
            (std::vector<PageId>{c, d, d}));
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(GraphBuilder, RejectsOutOfRangeIds) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  EXPECT_THROW(b.add_link(a, a + 1), std::out_of_range);
  EXPECT_THROW(b.add_link(a + 1, a), std::out_of_range);
  EXPECT_THROW(b.add_link_to_url(a + 1, "s.edu/a"), std::out_of_range);
  EXPECT_THROW(b.add_external_link(a + 1), std::out_of_range);
  const auto g = std::move(b).build();
  EXPECT_EQ(g.num_pages(), 1u);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_EQ(g.num_external_links(), 0u);
}

TEST(GraphBuilder, FindLooksUpInternedPages) {
  GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  EXPECT_EQ(b.find("s.edu/a"), std::optional<PageId>{a});
  EXPECT_FALSE(b.find("s.edu/missing").has_value());
}

/// Replayable source that delivers a fixed edge list in fixed-size chunks.
GraphBuilder::EdgeSource chunked(std::vector<GraphBuilder::Edge> edges,
                                 std::size_t chunk) {
  return [edges = std::move(edges), chunk](const GraphBuilder::ChunkSink& sink) {
    for (std::size_t i = 0; i < edges.size(); i += chunk) {
      const std::size_t len = std::min(chunk, edges.size() - i);
      sink(std::span<const GraphBuilder::Edge>(edges.data() + i, len));
    }
  };
}

TEST(GraphBuilder, StreamMatchesBuildOnSmallGraph) {
  GraphBuilder ref;
  const auto a = ref.add_page("s.edu/a", "s.edu");
  const auto b = ref.add_page("s.edu/b", "s.edu");
  const auto c = ref.add_page("t.edu/c", "t.edu");
  ref.add_link(a, b);
  ref.add_link(a, c);
  ref.add_link(c, a);
  ref.add_link(a, b);  // parallel edge
  ref.add_external_link(b, 4);
  const auto want = std::move(ref).build();

  GraphBuilder sb;
  sb.add_page("s.edu/a", "s.edu");
  sb.add_page("s.edu/b", "s.edu");
  sb.add_page("t.edu/c", "t.edu");
  sb.add_external_link(b, 4);
  // Deliberately unsorted delivery: the builder canonicalizes rows itself.
  const auto got = std::move(sb).build_from_stream(
      chunked({{a, c}, {a, b}, {c, a}, {a, b}}, 2));

  ASSERT_EQ(got.num_pages(), want.num_pages());
  ASSERT_EQ(got.num_links(), want.num_links());
  ASSERT_EQ(got.num_external_links(), want.num_external_links());
  for (PageId p = 0; p < want.num_pages(); ++p) {
    EXPECT_EQ(got.url(p), want.url(p));
    EXPECT_EQ(got.site(p), want.site(p));
    EXPECT_EQ(got.external_out_degree(p), want.external_out_degree(p));
    const auto out_g = got.out_links(p);
    const auto out_w = want.out_links(p);
    EXPECT_EQ(std::vector<PageId>(out_g.begin(), out_g.end()),
              std::vector<PageId>(out_w.begin(), out_w.end()));
    const auto in_g = got.in_links(p);
    const auto in_w = want.in_links(p);
    EXPECT_EQ(std::vector<PageId>(in_g.begin(), in_g.end()),
              std::vector<PageId>(in_w.begin(), in_w.end()));
  }
}

TEST(GraphBuilder, StreamConflictingSiteReAddThrows) {
  GraphBuilder sb;
  sb.add_page("s.edu/a", "s.edu");
  EXPECT_THROW((void)sb.add_page("s.edu/a", "other.edu"), std::invalid_argument);
  EXPECT_EQ(sb.add_page("s.edu/a", "s.edu"), 0u);
  // The rejected re-add left no trace in the streamed build either.
  const auto g = std::move(sb).build_from_stream(chunked({}, 1));
  EXPECT_EQ(g.num_pages(), 1u);
  EXPECT_EQ(g.num_sites(), 1u);
}

TEST(GraphBuilder, StreamRejectsUnknownEndpoints) {
  GraphBuilder sb;
  sb.add_page("s.edu/a", "s.edu");
  EXPECT_THROW((void)std::move(sb).build_from_stream(chunked({{0, 5}}, 8)),
               std::out_of_range);
}

TEST(GraphBuilder, StreamRejectsNonReplayableSource) {
  GraphBuilder sb;
  const auto a = sb.add_page("s.edu/a", "s.edu");
  const auto b = sb.add_page("s.edu/b", "s.edu");
  // Source that delivers an extra edge on the second pass.
  int pass = 0;
  const auto source = [&](const GraphBuilder::ChunkSink& sink) {
    std::vector<GraphBuilder::Edge> edges{{a, b}};
    if (pass++ > 0) edges.push_back({a, b});
    sink(edges);
  };
  EXPECT_THROW((void)std::move(sb).build_from_stream(source), std::logic_error);
}

TEST(GraphBuilder, StreamRejectsBufferedLinks) {
  GraphBuilder sb;
  const auto a = sb.add_page("s.edu/a", "s.edu");
  sb.add_link(a, a);
  EXPECT_THROW((void)std::move(sb).build_from_stream(chunked({}, 1)),
               std::logic_error);
}

TEST(GraphBuilder, StreamEmptyBuildsEmptyRows) {
  GraphBuilder sb;
  sb.add_page("s.edu/a", "s.edu");
  const auto g =
      std::move(sb).build_from_stream([](const GraphBuilder::ChunkSink&) {});
  EXPECT_EQ(g.num_pages(), 1u);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_TRUE(g.out_links(0).empty());
}

TEST(WebGraph, DefaultConstructedAccessorsAreSafe) {
  // A default-constructed WebGraph has empty CSR arrays; every accessor
  // must degrade gracefully instead of reading past offsets (once UB).
  const WebGraph g;
  EXPECT_EQ(g.num_pages(), 0u);
  EXPECT_EQ(g.num_sites(), 0u);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_TRUE(g.out_links(0).empty());
  EXPECT_TRUE(g.in_links(0).empty());
  EXPECT_TRUE(g.pages_of_site(0).empty());
  EXPECT_EQ(g.out_degree(0), 0u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_EQ(g.external_out_degree(0), 0u);
  EXPECT_FALSE(g.find("s.edu/a").has_value());
}

TEST(WebGraph, OutOfRangePageAccessorsAreSafe) {
  const auto g = test::two_cycle();
  EXPECT_TRUE(g.out_links(99).empty());
  EXPECT_TRUE(g.in_links(99).empty());
  EXPECT_EQ(g.out_degree(99), 0u);
  EXPECT_EQ(g.external_out_degree(kInvalidPage), 0u);
}

}  // namespace
}  // namespace p2prank::graph
