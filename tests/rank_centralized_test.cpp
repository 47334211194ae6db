#include "rank/centralized.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/synthetic_web.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {
namespace {

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

CentralizedOptions tight() {
  CentralizedOptions o;
  o.epsilon = 1e-13;
  o.max_iterations = 3000;
  return o;
}

TEST(Centralized, EmptyGraph) {
  graph::GraphBuilder b;
  const auto g = std::move(b).build();
  const auto r = centralized_pagerank(g, tight(), pool());
  EXPECT_TRUE(r.ranks.empty());
}

TEST(Centralized, RejectsBadDamping) {
  const auto g = test::two_cycle();
  auto o = tight();
  o.damping = 1.0;
  EXPECT_THROW((void)centralized_pagerank(g, o, pool()), std::invalid_argument);
  o.damping = 0.0;
  EXPECT_THROW((void)centralized_pagerank(g, o, pool()), std::invalid_argument);
}

TEST(Centralized, RanksSumToOne) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(5000, 3));
  const auto r = centralized_pagerank(g, tight(), pool());
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(util::accurate_sum(r.ranks), 1.0, 1e-9);
}

TEST(Centralized, SymmetricCycleGivesEqualRanks) {
  const auto g = test::two_cycle();
  const auto r = centralized_pagerank(g, tight(), pool());
  EXPECT_NEAR(r.ranks[0], 0.5, 1e-10);
  EXPECT_NEAR(r.ranks[1], 0.5, 1e-10);
}

TEST(Centralized, HubOutranksLeaves) {
  const auto g = test::star(5);
  const auto r = centralized_pagerank(g, tight(), pool());
  const auto hub = *g.find("s.edu/hub");
  for (std::size_t v = 0; v < r.ranks.size(); ++v) {
    if (v != hub) {
      EXPECT_GT(r.ranks[hub], r.ranks[v]);
    }
  }
}

TEST(Centralized, MoreBacklinksMeansHigherRank) {
  // b has two backlinks, c has one; otherwise symmetric sources.
  graph::GraphBuilder builder;
  const auto s1 = builder.add_page("s.edu/s1", "s.edu");
  const auto s2 = builder.add_page("s.edu/s2", "s.edu");
  const auto b = builder.add_page("s.edu/b", "s.edu");
  const auto c = builder.add_page("s.edu/c", "s.edu");
  builder.add_link(s1, b);
  builder.add_link(s2, b);
  builder.add_link(s1, c);
  const auto g = std::move(builder).build();
  const auto r = centralized_pagerank(g, tight(), pool());
  EXPECT_GT(r.ranks[b], r.ranks[c]);
}

TEST(Centralized, DanglingMassIsRedistributedNotLost) {
  // A graph that is all dangling pages still sums to 1.
  graph::GraphBuilder builder;
  builder.add_page("s.edu/a", "s.edu");
  builder.add_page("s.edu/b", "s.edu");
  const auto g = std::move(builder).build();
  const auto r = centralized_pagerank(g, tight(), pool());
  EXPECT_NEAR(util::accurate_sum(r.ranks), 1.0, 1e-12);
  EXPECT_NEAR(r.ranks[0], 0.5, 1e-12);
}

TEST(Centralized, ResidualHistoryRecorded) {
  const auto g = test::star(4);
  auto o = tight();
  o.record_residuals = true;
  const auto r = centralized_pagerank(g, o, pool());
  EXPECT_EQ(r.residual_history.size(), r.iterations);
  EXPECT_GT(r.iterations, 0u);
}

TEST(Centralized, IterationCapRespected) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 4));
  auto o = tight();
  o.max_iterations = 3;
  const auto r = centralized_pagerank(g, o, pool());
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3u);
}

TEST(TopPages, OrdersByRankThenId) {
  const std::vector<double> ranks{0.1, 0.5, 0.5, 0.3};
  const auto top = top_pages(ranks, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie between 1 and 2 broken by id
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 3u);
}

TEST(TopPages, KLargerThanNReturnsAll) {
  const std::vector<double> ranks{0.2, 0.1};
  const auto top = top_pages(ranks, 10);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopPages, EmptyInput) {
  EXPECT_TRUE(top_pages({}, 5).empty());
}

}  // namespace
}  // namespace p2prank::rank
