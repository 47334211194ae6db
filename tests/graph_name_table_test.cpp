#include "graph/name_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/graph_io.hpp"
#include "graph/web_graph.hpp"

namespace p2prank::graph {
namespace {

TEST(NameTable, IdsFollowInsertionOrder) {
  NameTable t;
  const std::vector<std::string> names{"b.edu/x", "a.edu/y", "c.edu/", ""};
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(t.insert(names[i]), std::make_pair(i, true));
  }
  ASSERT_EQ(t.size(), names.size());
  for (std::uint32_t i = 0; i < names.size(); ++i) EXPECT_EQ(t[i], names[i]);
}

TEST(NameTable, FindHitsEveryNameAndMissesAbsentPrefixAndEmpty) {
  NameTable t;
  EXPECT_EQ(t.find("s.edu/a"), std::nullopt);  // no index yet
  EXPECT_EQ(t.find(""), std::nullopt);
  const std::vector<std::string> names{"s.edu/a", "s.edu/ab", "t.edu/index"};
  for (const auto& name : names) t.insert(name);
  for (std::uint32_t i = 0; i < names.size(); ++i) EXPECT_EQ(t.find(names[i]), i);
  EXPECT_EQ(t.find("u.edu/never"), std::nullopt);
  EXPECT_EQ(t.find("s.edu/"), std::nullopt);     // strict prefix of two names
  EXPECT_EQ(t.find("t.edu/inde"), std::nullopt);  // strict prefix of one
  EXPECT_EQ(t.find(""), std::nullopt);
  EXPECT_EQ(t.find("s.edu/abc"), std::nullopt);  // a present name extended
}

TEST(NameTable, RepeatIsRefusedAndAppendsNothing) {
  NameTable t;
  t.insert("s.edu/a");
  t.insert("s.edu/b");
  EXPECT_EQ(t.insert("s.edu/a"), std::make_pair(std::uint32_t{0}, false));
  EXPECT_EQ(t.insert(std::string("s.edu/b")), std::make_pair(std::uint32_t{1}, false));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.insert("s.edu/c"), std::make_pair(std::uint32_t{2}, true));
  EXPECT_EQ(t[2], "s.edu/c");
}

TEST(NameTable, EmptyNameIsANameLikeAnyOther) {
  // site_of() gives "" for a URL without a host, so "" is a site name.
  NameTable t;
  t.insert("a.edu");
  EXPECT_EQ(t.insert(""), std::make_pair(std::uint32_t{1}, true));
  EXPECT_EQ(t.find(""), 1u);
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t.insert(""), std::make_pair(std::uint32_t{1}, false));
}

TEST(NameTable, IdsAndLookupsSurviveArenaAndIndexGrowth) {
  // One name at a time, as GraphBuilder interns: the arena reallocates and
  // the index rehashes many times over.
  constexpr std::uint32_t kNames = 120000;
  auto name_of = [](std::uint32_t i) {
    return "site" + std::to_string(i % 977) + ".edu/page/" + std::to_string(i);
  };
  NameTable t;
  for (std::uint32_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(t.insert(name_of(i)), std::make_pair(i, true));
  }
  ASSERT_EQ(t.size(), kNames);
  for (std::uint32_t i = 0; i < kNames; ++i) {
    const std::string name = name_of(i);
    ASSERT_EQ(t[i], name);
    ASSERT_EQ(t.find(name), i);
    ASSERT_EQ(t.find(name + "x"), std::nullopt);
  }
}

TEST(NameTable, ReserveThenInsertMatchesGrowth) {
  NameTable grown;
  NameTable reserved;
  reserved.reserve(1000, 1000 * 12);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::string name = "r.edu/" + std::to_string(i);
    ASSERT_EQ(grown.insert(name), reserved.insert(name));
  }
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(reserved[i], grown[i]);
    ASSERT_EQ(reserved.find(grown[i]), i);
  }
}

TEST(NameTable, CopyIsIndependentOfItsSource) {
  // The splicer copies a graph's tables and appends to the copies.
  NameTable source;
  for (std::uint32_t i = 0; i < 100; ++i) source.insert("s.edu/" + std::to_string(i));
  NameTable copy = source;
  for (std::uint32_t i = 100; i < 200; ++i) {
    ASSERT_EQ(copy.insert("s.edu/" + std::to_string(i)), std::make_pair(i, true));
  }
  EXPECT_EQ(source.size(), 100u);
  EXPECT_EQ(source.find("s.edu/150"), std::nullopt);
  EXPECT_EQ(copy.find("s.edu/150"), 150u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(source.find(copy[i]), i);
    EXPECT_EQ(copy[i], source[i]);
  }
}

TEST(NameTable, LoadedCrawlKeepsTheBuildersNames) {
  GraphBuilder b;
  std::vector<std::string> urls;
  std::vector<std::string> sites;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const std::string site = "site" + std::to_string(i % 37) + ".edu";
    urls.push_back(site + "/p" + std::to_string(i));
    if (i < 37) sites.push_back(site);
    ASSERT_EQ(b.add_page(urls.back(), site), i);
    if (i > 0) b.add_link(i, i / 2);
  }
  const WebGraph built = std::move(b).build();
  std::stringstream buffer;
  save_graph_binary(built, buffer);
  const WebGraph loaded = load_graph_binary(buffer);

  for (const WebGraph* g : {&built, &loaded}) {
    ASSERT_EQ(g->num_pages(), urls.size());
    ASSERT_EQ(g->num_sites(), sites.size());
    for (PageId p = 0; p < urls.size(); ++p) {
      ASSERT_EQ(g->url(p), urls[p]);
      ASSERT_EQ(g->site_name(g->site(p)), sites[p % 37]);
      ASSERT_EQ(g->find(urls[p]), p);
    }
    for (SiteId s = 0; s < sites.size(); ++s) ASSERT_EQ(g->site_name(s), sites[s]);
    EXPECT_EQ(g->find("site0.edu/p"), std::nullopt);
  }
}

}  // namespace
}  // namespace p2prank::graph
