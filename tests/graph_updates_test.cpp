#include "graph/graph_updates.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/synthetic_web.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace p2prank::graph {
namespace {

/// Full structural equality: CSR arrays, identity, externals. The splice
/// path must reproduce the rebuild oracle exactly (canonical form).
void expect_same_graph(const WebGraph& a, const WebGraph& b) {
  ASSERT_EQ(a.num_pages(), b.num_pages());
  ASSERT_EQ(a.num_sites(), b.num_sites());
  ASSERT_EQ(a.num_links(), b.num_links());
  ASSERT_EQ(a.num_external_links(), b.num_external_links());
  for (PageId p = 0; p < a.num_pages(); ++p) {
    ASSERT_EQ(a.url(p), b.url(p)) << "page " << p;
    ASSERT_EQ(a.site_name(a.site(p)), b.site_name(b.site(p))) << "page " << p;
    ASSERT_EQ(a.external_out_degree(p), b.external_out_degree(p)) << "page " << p;
    const auto out_a = a.out_links(p);
    const auto out_b = b.out_links(p);
    ASSERT_EQ(std::vector<PageId>(out_a.begin(), out_a.end()),
              std::vector<PageId>(out_b.begin(), out_b.end()))
        << "out row " << p;
    const auto in_a = a.in_links(p);
    const auto in_b = b.in_links(p);
    ASSERT_EQ(std::vector<PageId>(in_a.begin(), in_a.end()),
              std::vector<PageId>(in_b.begin(), in_b.end()))
        << "in row " << p;
  }
}

/// Random batch mixing every update kind, biased like the chaos harness's
/// graph churn (adds, removes of existing links, externals, page adds).
std::vector<LinkUpdate> random_batch(const WebGraph& g, std::uint64_t seed,
                                     std::size_t count, bool allow_page_adds) {
  util::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(g.num_pages());
  const auto pick = [&] { return static_cast<PageId>(rng.below(n)); };
  std::vector<LinkUpdate> ups;
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform();
    if (allow_page_adds && roll < 0.1) {
      const std::string url = "fresh.edu/p" + std::to_string(fresh++);
      ups.push_back(LinkUpdate::add_page(url));
      ups.push_back(LinkUpdate::add_link(url, g.url(pick())));
    } else if (roll < 0.55) {
      ups.push_back(LinkUpdate::add_link(g.url(pick()), g.url(pick())));
    } else if (roll < 0.8) {
      const PageId u = pick();
      const auto links = g.out_links(u);
      if (links.empty()) {
        ups.push_back(LinkUpdate::add_external(g.url(u)));
      } else {
        // Removing a base link twice in a row would throw unless an add for
        // the same pair precedes it; keep batches valid by adding first.
        const PageId v = links[rng.below(links.size())];
        ups.push_back(LinkUpdate::add_link(g.url(u), g.url(v)));
        ups.push_back(LinkUpdate::remove_link(g.url(u), g.url(v)));
        ups.push_back(LinkUpdate::remove_link(g.url(u), g.url(v)));
      }
    } else {
      ups.push_back(LinkUpdate::add_external(g.url(pick())));
    }
  }
  return ups;
}

TEST(GraphUpdates, EmptyUpdateListIsIdentity) {
  const auto g = test::two_cycle();
  const auto g2 = apply_updates(g, {});
  EXPECT_EQ(g2.num_pages(), g.num_pages());
  EXPECT_EQ(g2.num_links(), g.num_links());
  for (PageId p = 0; p < g.num_pages(); ++p) EXPECT_EQ(g2.url(p), g.url(p));
}

TEST(GraphUpdates, AddLinkBetweenExistingPages) {
  const auto g = test::two_cycle();
  const std::vector<LinkUpdate> ups{LinkUpdate::add_link("s.edu/a", "s.edu/a")};
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.num_links(), 3u);
  const auto a = *g2.find("s.edu/a");
  EXPECT_EQ(g2.out_degree(a), 2u);
}

TEST(GraphUpdates, RemoveLink) {
  const auto g = test::two_cycle();
  const std::vector<LinkUpdate> ups{LinkUpdate::remove_link("s.edu/a", "s.edu/b")};
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.num_links(), 1u);
  const auto a = *g2.find("s.edu/a");
  EXPECT_TRUE(g2.is_dangling(a));
}

TEST(GraphUpdates, RemoveOneOfParallelEdges) {
  graph::GraphBuilder b;
  const auto a = b.add_page("s.edu/a", "s.edu");
  const auto c = b.add_page("s.edu/b", "s.edu");
  b.add_link(a, c);
  b.add_link(a, c);
  const auto g = std::move(b).build();
  const std::vector<LinkUpdate> ups{LinkUpdate::remove_link("s.edu/a", "s.edu/b")};
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.num_links(), 1u);
}

TEST(GraphUpdates, RemovingMissingLinkThrows) {
  const auto g = test::two_cycle();
  const std::vector<LinkUpdate> ups{LinkUpdate::remove_link("s.edu/b", "s.edu/b")};
  EXPECT_THROW((void)apply_updates(g, ups), std::invalid_argument);
}

TEST(GraphUpdates, UnknownPageThrows) {
  const auto g = test::two_cycle();
  const std::vector<LinkUpdate> ups{LinkUpdate::add_link("ghost.edu/x", "s.edu/a")};
  EXPECT_THROW((void)apply_updates(g, ups), std::invalid_argument);
}

TEST(GraphUpdates, AddPageAppendsWithoutDisturbingIds) {
  const auto g = test::two_cycle();
  const std::vector<LinkUpdate> ups{
      LinkUpdate::add_page("new.edu/fresh"),
      LinkUpdate::add_link("new.edu/fresh", "s.edu/a"),
  };
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.num_pages(), 3u);
  // Old ids preserved.
  EXPECT_EQ(g2.url(0), g.url(0));
  EXPECT_EQ(g2.url(1), g.url(1));
  const auto fresh = g2.find("new.edu/fresh");
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(*fresh, 2u);
  EXPECT_EQ(g2.in_degree(*g2.find("s.edu/a")), 2u);
}

TEST(GraphUpdates, AddPageIsIdempotent) {
  const auto g = test::two_cycle();
  const std::vector<LinkUpdate> ups{
      LinkUpdate::add_page("s.edu/a"),
      LinkUpdate::add_page("new.edu/x"),
      LinkUpdate::add_page("new.edu/x"),
  };
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.num_pages(), 3u);
}

TEST(GraphUpdates, ExternalLinkBookkeeping) {
  const auto g = test::leaky_pair();  // a has 1 external link
  const std::vector<LinkUpdate> ups{
      LinkUpdate::add_external("s.edu/a"),
      LinkUpdate::remove_external("s.edu/a"),
      LinkUpdate::add_external("s.edu/b"),
  };
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.external_out_degree(*g2.find("s.edu/a")), 1u);
  EXPECT_EQ(g2.external_out_degree(*g2.find("s.edu/b")), 1u);
}

TEST(GraphUpdates, RemoveExternalBelowZeroThrows) {
  const auto g = test::two_cycle();  // no external links
  const std::vector<LinkUpdate> ups{LinkUpdate::remove_external("s.edu/a")};
  EXPECT_THROW((void)apply_updates(g, ups), std::invalid_argument);
}

TEST(GraphUpdates, LinkToJustAddedPageWorksInOrder) {
  const auto g = test::two_cycle();
  const std::vector<LinkUpdate> ups{
      LinkUpdate::add_page("new.edu/p"),
      LinkUpdate::add_link("s.edu/a", "new.edu/p"),
  };
  const auto g2 = apply_updates(g, ups);
  const auto p = *g2.find("new.edu/p");
  EXPECT_EQ(g2.in_degree(p), 1u);
}

TEST(GraphUpdates, SpliceMatchesRebuildOracleLinkOnly) {
  const auto g = generate_synthetic_web(google2002_config(1500, 11));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto ups = random_batch(g, seed, 40, /*allow_page_adds=*/false);
    const auto delta = apply_updates_delta(g, ups);
    EXPECT_TRUE(delta.incremental);
    const auto oracle = apply_updates_rebuild(g, ups);
    expect_same_graph(delta.graph, oracle);
  }
}

TEST(GraphUpdates, SpliceMatchesRebuildOracleWithPageAdds) {
  const auto g = generate_synthetic_web(google2002_config(1200, 23));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto ups = random_batch(g, seed, 30, /*allow_page_adds=*/true);
    const auto delta = apply_updates_delta(g, ups);
    const auto oracle = apply_updates_rebuild(g, ups);
    expect_same_graph(delta.graph, oracle);
  }
}

TEST(GraphUpdates, LinkOnlyDeltaSharesPageTableAndReportsChangedRows) {
  const auto g = test::two_cycle();  // a <-> b
  const std::vector<LinkUpdate> ups{
      LinkUpdate::add_link("s.edu/a", "s.edu/a"),
      LinkUpdate::add_external("s.edu/b"),
  };
  const auto delta = apply_updates_delta(g, ups);
  EXPECT_TRUE(delta.incremental);
  const PageId a = *g.find("s.edu/a");
  const PageId b = *g.find("s.edu/b");
  // In-neighborhood changed only for a (new self-link).
  EXPECT_EQ(delta.in_changed, std::vector<PageId>{a});
  // Out-degrees changed for a (one more link) and b (one more external).
  EXPECT_EQ(delta.degree_changed, (std::vector<PageId>{a, b}));
  // URL storage is shared, not copied: same underlying string.
  EXPECT_EQ(delta.graph.url(a).data(), g.url(a).data());
}

TEST(GraphUpdates, BalancedSwapLeavesDegreeUnchanged) {
  // a -> b replaced by a -> a: in-rows of both targets change, but a's total
  // out-degree stays 2 (so its 1/d weight is untouched).
  graph::GraphBuilder bld;
  const auto a = bld.add_page("s.edu/a", "s.edu");
  const auto b = bld.add_page("s.edu/b", "s.edu");
  bld.add_link(a, b);
  bld.add_link(a, b);
  const auto g = std::move(bld).build();
  const std::vector<LinkUpdate> ups{
      LinkUpdate::remove_link("s.edu/a", "s.edu/b"),
      LinkUpdate::add_link("s.edu/a", "s.edu/a"),
  };
  const auto delta = apply_updates_delta(g, ups);
  EXPECT_TRUE(delta.incremental);
  EXPECT_EQ(delta.in_changed, (std::vector<PageId>{a, b}));
  EXPECT_TRUE(delta.degree_changed.empty());
}

TEST(GraphUpdates, PageAddingBatchIsNotIncremental) {
  const auto g = test::two_cycle();
  const std::vector<LinkUpdate> ups{LinkUpdate::add_page("new.edu/x")};
  const auto delta = apply_updates_delta(g, ups);
  EXPECT_FALSE(delta.incremental);
  EXPECT_EQ(delta.graph.num_pages(), 3u);
}

TEST(GraphUpdates, SequentialSemanticsAddThenRemoveTwice) {
  // Base has one a -> b; adding one more allows two removals, and a third
  // must throw — the delta path replays effective counts in order.
  const auto g = test::two_cycle();
  std::vector<LinkUpdate> ups{
      LinkUpdate::add_link("s.edu/a", "s.edu/b"),
      LinkUpdate::remove_link("s.edu/a", "s.edu/b"),
      LinkUpdate::remove_link("s.edu/a", "s.edu/b"),
  };
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.out_degree(*g2.find("s.edu/a")), 0u);
  ups.push_back(LinkUpdate::remove_link("s.edu/a", "s.edu/b"));
  EXPECT_THROW((void)apply_updates(g, ups), std::invalid_argument);
}

TEST(GraphUpdates, LargePageAddingBatchStaysFast) {
  // Perf-shaped regression for the once-quadratic new-page resolve: 10k
  // add_page + add_link pairs must clear well inside the tier-1 budget.
  const auto g = test::two_cycle();
  std::vector<LinkUpdate> ups;
  ups.reserve(20'000);
  for (int i = 0; i < 10'000; ++i) {
    const std::string url = "bulk.edu/p" + std::to_string(i) + ".html";
    ups.push_back(LinkUpdate::add_page(url));
    ups.push_back(LinkUpdate::add_link(url, "s.edu/a"));
  }
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.num_pages(), 10'002u);
  EXPECT_EQ(g2.in_degree(*g2.find("s.edu/a")), 10'001u);
}

TEST(GraphUpdates, SurvivesSyntheticScale) {
  const auto g = generate_synthetic_web(google2002_config(2000, 77));
  std::vector<LinkUpdate> ups;
  // Rewire a few pages.
  ups.push_back(LinkUpdate::add_page("brand-new.edu/index"));
  ups.push_back(LinkUpdate::add_link("brand-new.edu/index", g.url(0)));
  ups.push_back(LinkUpdate::add_link(g.url(1), "brand-new.edu/index"));
  const auto g2 = apply_updates(g, ups);
  EXPECT_EQ(g2.num_pages(), g.num_pages() + 1);
  EXPECT_EQ(g2.num_links(), g.num_links() + 2);
  EXPECT_EQ(g2.num_external_links(), g.num_external_links());
}

}  // namespace
}  // namespace p2prank::graph
