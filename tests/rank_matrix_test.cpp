#include "rank/link_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/synthetic_web.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {
namespace {

constexpr double kAlpha = 0.85;

/// Weight of each in-edge of row v: α/d(u) of its source u.
std::vector<double> in_edge_weights(const LinkMatrix& m, std::size_t v) {
  std::vector<double> w;
  for (const std::uint32_t u : m.row_sources(v)) w.push_back(m.source_weights()[u]);
  return w;
}

TEST(LinkMatrix, RejectsBadAlpha) {
  const auto g = test::two_cycle();
  EXPECT_THROW((void)LinkMatrix::from_graph(g, 0.0), std::invalid_argument);
  EXPECT_THROW((void)LinkMatrix::from_graph(g, 1.0), std::invalid_argument);
  EXPECT_THROW((void)LinkMatrix::from_graph(g, -0.5), std::invalid_argument);
}

TEST(LinkMatrix, TwoCycleWeights) {
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  ASSERT_EQ(m.dimension(), 2u);
  ASSERT_EQ(m.num_entries(), 2u);
  // Each page has exactly one in-edge of weight alpha / 1.
  for (std::size_t v = 0; v < 2; ++v) {
    EXPECT_EQ(in_edge_weights(m, v), std::vector<double>{kAlpha});
  }
}

TEST(LinkMatrix, WeightsUseGlobalOutDegreeIncludingExternal) {
  // a -> b plus one external link: weight must be alpha/2, not alpha/1.
  const auto g = test::leaky_pair();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const auto b = *g.find("s.edu/b");
  EXPECT_EQ(in_edge_weights(m, b), std::vector<double>{kAlpha / 2.0});
}

TEST(LinkMatrix, MultiplyMatchesManualComputation) {
  const auto g = test::star(3);
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const std::vector<double> x(m.dimension(), 1.0);
  std::vector<double> y(m.dimension(), -1.0);
  SweepScratch scratch;
  util::ThreadPool pool(1);
  (void)m.sweep_and_residual(x, y, {}, scratch, pool);
  // Hub receives alpha from each of the 3 leaves; leaves receive nothing.
  const auto hub = *g.find("s.edu/hub");
  EXPECT_DOUBLE_EQ(y[hub], 3.0 * kAlpha);
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    if (v != hub) {
      EXPECT_DOUBLE_EQ(y[v], 0.0);
    }
  }
  EXPECT_EQ(test::naive_multiply(m, x), y);
}

TEST(LinkMatrix, ContractionNormBoundedByAlpha) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(5000, 3));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  EXPECT_LE(m.contraction_norm(), kAlpha + 1e-12);
  EXPECT_GT(m.contraction_norm(), 0.0);
}

TEST(LinkMatrix, ContractionNormStrictlyBelowAlphaWhenLeaky) {
  const auto g = test::leaky_pair();
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  // Page a sends half its rank out of the crawl.
  EXPECT_DOUBLE_EQ(m.contraction_norm(), kAlpha / 2.0);
}

TEST(LinkMatrix, SubsetKeepsOnlyInternalEdges) {
  const auto g = test::chain(6);  // 0->1->2->3->4->5
  const std::vector<graph::PageId> left{0, 1, 2};
  const auto m = LinkMatrix::from_subset(g, left, kAlpha);
  ASSERT_EQ(m.dimension(), 3u);
  // Edges 0->1 and 1->2 are inside; 2->3 crosses out.
  EXPECT_EQ(m.num_entries(), 2u);
}

TEST(LinkMatrix, SubsetUsesGlobalDegrees) {
  const auto g = test::chain(4);  // every non-terminal page has out-degree 1
  const std::vector<graph::PageId> subset{1, 2};
  const auto m = LinkMatrix::from_subset(g, subset, kAlpha);
  // Edge 1->2: local row of page 2 is index 1.
  EXPECT_EQ(in_edge_weights(m, 1), std::vector<double>{kAlpha});
}

TEST(LinkMatrix, SubsetOfWholeGraphEqualsFromGraph) {
  const auto g = test::star(4);
  std::vector<graph::PageId> all(g.num_pages());
  for (graph::PageId p = 0; p < g.num_pages(); ++p) all[p] = p;
  const auto whole = LinkMatrix::from_graph(g, kAlpha);
  const auto sub = LinkMatrix::from_subset(g, all, kAlpha);
  ASSERT_EQ(whole.num_entries(), sub.num_entries());
  const std::vector<double> x(g.num_pages(), 1.0);
  EXPECT_EQ(test::naive_multiply(whole, x), test::naive_multiply(sub, x));
}

TEST(LinkMatrix, EmptySubset) {
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_subset(g, {}, kAlpha);
  EXPECT_EQ(m.dimension(), 0u);
  EXPECT_EQ(m.num_entries(), 0u);
}

}  // namespace
}  // namespace p2prank::rank
