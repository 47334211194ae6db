#include "engine/page_group.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;
constexpr double kBeta = 1.0 - kAlpha;

util::ThreadPool& pool() {
  static util::ThreadPool p(2);
  return p;
}

TEST(PageGroup, SolvesLocalSystemWithoutAfferentRank) {
  // Whole two-cycle as one group: fixed point is 1 everywhere.
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  group.solve_to_convergence(1e-14, 2000, pool());
  EXPECT_NEAR(group.ranks()[0], 1.0, 1e-10);
  EXPECT_NEAR(group.ranks()[1], 1.0, 1e-10);
}

TEST(PageGroup, RefreshXRaisesFixedPoint) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  group.solve_to_convergence(1e-14, 2000, pool());
  YSlice slice;
  slice.entries = {{0u, 0.5}};
  slice.record_count = 1;
  group.refresh_x(/*source_group=*/7, std::move(slice));
  group.solve_to_convergence(1e-14, 2000, pool());
  // Closed form: r0 = beta + 0.5 + alpha*r1; r1 = beta + alpha*r0.
  const double r0 = (kBeta + 0.5 + kAlpha * kBeta) / (1 - kAlpha * kAlpha);
  EXPECT_NEAR(group.ranks()[0], r0, 1e-10);
}

TEST(PageGroup, RefreshXReplacesPriorSliceFromSameSource) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  YSlice first;
  first.entries = {{0u, 0.9}};
  group.refresh_x(3, std::move(first));
  YSlice second;
  second.entries = {{0u, 0.2}};
  group.refresh_x(3, std::move(second));  // replaces, does not accumulate
  group.solve_to_convergence(1e-14, 2000, pool());
  const double r0 = (kBeta + 0.2 + kAlpha * kBeta) / (1 - kAlpha * kAlpha);
  EXPECT_NEAR(group.ranks()[0], r0, 1e-10);
}

TEST(PageGroup, RefreshXRejectsIndexPastTheGroup) {
  // A slice whose last index lies past a 2-page group is refused whole:
  // not even its in-range entry reaches X.
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  YSlice far;
  far.entries = {{0u, 0.1}, {1000u, 0.5}};
  EXPECT_THROW(group.refresh_x(3, far), std::out_of_range);
  YSlice one_past;
  one_past.entries = {{2u, 0.1}};
  EXPECT_THROW(group.refresh_x(3, one_past), std::out_of_range);
  group.solve_to_convergence(1e-14, 2000, pool());
  EXPECT_NEAR(group.ranks()[0], 1.0, 1e-10);  // the fixed point with X = 0
  EXPECT_NEAR(group.ranks()[1], 1.0, 1e-10);
}

TEST(PageGroup, SlicesFromDifferentSourcesAccumulate) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  YSlice a;
  a.entries = {{0u, 0.2}};
  YSlice b;
  b.entries = {{0u, 0.3}};
  group.refresh_x(1, std::move(a));
  group.refresh_x(2, std::move(b));
  group.solve_to_convergence(1e-14, 2000, pool());
  const double r0 = (kBeta + 0.5 + kAlpha * kBeta) / (1 - kAlpha * kAlpha);
  EXPECT_NEAR(group.ranks()[0], r0, 1e-10);
}

TEST(PageGroup, ComputeYUsesAlphaOverGlobalDegree) {
  // Chain 0->1->2->3 split {0,1} | {2,3}. Group A's efferent edge is 1->2
  // with weight alpha/d(1) = alpha.
  const auto g = test::chain(4);
  PageGroup a(g, {0, 1}, kAlpha);
  a.add_efferent_edge(/*dest_group=*/1, /*dest_local=*/0, /*src_local=*/1, kAlpha);
  a.finalize_efferents();
  a.solve_to_convergence(1e-14, 2000, pool());
  // R(1) = beta + alpha*beta.
  const auto y = a.compute_y(1);
  ASSERT_EQ(y.entries.size(), 1u);
  EXPECT_EQ(y.entries[0].first, 0u);
  EXPECT_NEAR(y.entries[0].second, kAlpha * (kBeta + kAlpha * kBeta), 1e-10);
  EXPECT_EQ(y.record_count, 1u);
}

TEST(PageGroup, ComputeYAggregatesEdgesToSameTarget) {
  // Two pages in group A both link to the same page in group B.
  const auto g = test::star(2);  // leaves 1,2 -> hub 0
  PageGroup a(g, {1, 2}, kAlpha);
  a.add_efferent_edge(0, 0, 0, kAlpha);  // leaf1 -> hub
  a.add_efferent_edge(0, 0, 1, kAlpha);  // leaf2 -> hub
  a.finalize_efferents();
  a.solve_to_convergence(1e-14, 2000, pool());
  const auto y = a.compute_y(0);
  ASSERT_EQ(y.entries.size(), 1u);            // aggregated
  EXPECT_EQ(y.record_count, 2u);              // but 2 wire records
  EXPECT_NEAR(y.entries[0].second, 2.0 * kAlpha * kBeta, 1e-10);
}

TEST(PageGroup, ComputeYForUnknownGroupThrows) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  EXPECT_THROW((void)group.compute_y(9), std::invalid_argument);
}

TEST(PageGroup, EfferentDestinationsListsEveryTargetGroupOnce) {
  const auto g = test::chain(6);
  PageGroup group(g, {0, 1, 2}, kAlpha);
  group.add_efferent_edge(1, 0, 2, kAlpha);
  group.add_efferent_edge(2, 0, 2, kAlpha);
  group.add_efferent_edge(1, 1, 0, kAlpha);
  group.finalize_efferents();
  const auto dests = group.efferent_destinations();
  ASSERT_EQ(dests.size(), 2u);
  EXPECT_EQ(dests[0], 1u);
  EXPECT_EQ(dests[1], 2u);
}

TEST(PageGroup, SweepOnceIsOneJacobiStep) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  group.sweep_once(pool());
  // From R0 = 0: one sweep gives exactly beta everywhere.
  EXPECT_DOUBLE_EQ(group.ranks()[0], kBeta);
  EXPECT_DOUBLE_EQ(group.ranks()[1], kBeta);
  group.sweep_once(pool());
  EXPECT_DOUBLE_EQ(group.ranks()[0], kBeta + kAlpha * kBeta);
}

TEST(PageGroup, OuterStepCounter) {
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  EXPECT_EQ(group.outer_steps(), 0u);
  group.count_outer_step();
  group.count_outer_step();
  EXPECT_EQ(group.outer_steps(), 2u);
}

TEST(PageGroup, EmptyGroupIsInert) {
  const auto g = test::two_cycle();
  PageGroup group(g, {}, kAlpha);
  group.finalize_efferents();
  EXPECT_EQ(group.size(), 0u);
  group.sweep_once(pool());
  group.solve_to_convergence(1e-10, 10, pool());
  EXPECT_TRUE(group.ranks().empty());
}

}  // namespace
}  // namespace p2prank::engine
