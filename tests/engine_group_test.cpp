#include "engine/page_group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/synthetic_web.hpp"
#include "rank/link_matrix.hpp"
#include "rank/rank_types.hpp"
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

TEST(PageGroup, InstallCarryRejectsRowPastTheGroup) {
  // The row lists index the frontier bitmaps, whose last word has room past
  // size(): a changed row equal to size() would wake a row that does not
  // exist, and a changed source past the last word would write past the
  // bitmap. Both are refused before anything changes, whether the carry
  // installs or falls back to set_ranks.
  const auto g = test::two_cycle();
  PageGroup group(g, {0, 1}, kAlpha);
  group.finalize_efferents();
  group.sweep_once(pool());
  group.sweep_once(pool());
  const PageGroup::WorklistCarry carry = group.export_worklist_carry();
  ASSERT_TRUE(carry.valid);
  const std::vector<double> ranks(group.ranks().begin(), group.ranks().end());

  PageGroup fresh(g, {0, 1}, kAlpha);
  fresh.finalize_efferents();
  const std::vector<std::uint32_t> none;
  const std::vector<std::uint32_t> row_past{2};      // == size()
  const std::vector<std::uint32_t> source_past{64};  // past the last bitmap word
  for (const bool valid : {true, false}) {
    PageGroup::WorklistCarry offered = carry;
    offered.valid = valid;
    EXPECT_THROW((void)fresh.install_worklist_carry(ranks, offered, row_past, none),
                 std::out_of_range);
    EXPECT_EQ(fresh.ranks()[0], 0.0);
    EXPECT_EQ(fresh.ranks()[1], 0.0);
    EXPECT_THROW((void)fresh.install_worklist_carry(ranks, offered, none, source_past),
                 std::out_of_range);
    EXPECT_EQ(fresh.ranks()[0], 0.0);
    EXPECT_EQ(fresh.ranks()[1], 0.0);
  }
  // The refused calls left the group whole: a well-formed carry installs
  // and the frontier solve reaches the fixed point.
  ASSERT_TRUE(fresh.install_worklist_carry(ranks, carry, none, none));
  fresh.solve_to_convergence(1e-14, 2000, pool());
  EXPECT_NEAR(fresh.ranks()[0], 1.0, 1e-10);
  EXPECT_NEAR(fresh.ranks()[1], 1.0, 1e-10);
}

TEST(PageGroup, CarryIsInvalidAfterSetRanksOrResetState) {
  // A carry is a statement about the frontier on the group's rank vector:
  // once R is overwritten or wiped, the group has nothing to export until
  // a sweep re-primes it.
  const auto g = test::chain(4);
  PageGroup group(g, {0, 1, 2, 3}, kAlpha);
  group.finalize_efferents();
  EXPECT_FALSE(group.export_worklist_carry().valid) << "never swept";
  group.sweep_once(pool());
  group.sweep_once(pool());
  ASSERT_TRUE(group.export_worklist_carry().valid);

  const std::vector<double> ranks(group.ranks().begin(), group.ranks().end());
  group.set_ranks(ranks);
  EXPECT_FALSE(group.export_worklist_carry().valid) << "after set_ranks";
  group.sweep_once(pool());
  ASSERT_TRUE(group.export_worklist_carry().valid) << "re-primed";

  group.reset_state();
  EXPECT_FALSE(group.export_worklist_carry().valid) << "after reset_state";
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
  a.add_efferent_edge(/*dest_group=*/1, /*dest_local=*/0, /*src_local=*/1);
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
  a.add_efferent_edge(0, 0, 0);  // leaf1 -> hub
  a.add_efferent_edge(0, 0, 1);  // leaf2 -> hub
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
  group.add_efferent_edge(1, 0, 2);
  group.add_efferent_edge(2, 0, 2);
  group.add_efferent_edge(1, 1, 0);
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

/// A group's dense twin: βE + X kept with the group's own `+= value − held`
/// updates, iterated with the dense kernel on a buffer pair of its own. The
/// group sweeps with the frontier kernel, which must land on the same bits
/// sweep by sweep, the way test::naive_multiply checks the kernels.
class DenseTwin {
 public:
  explicit DenseTwin(const rank::LinkMatrix& m, std::vector<double> ranks = {})
      : m_(m),
        forcing_(m.dimension(), rank::beta_of(m.alpha()) * 1.0),
        cur_(std::move(ranks)),
        nxt_(m.dimension(), 0.0) {
    if (cur_.empty()) cur_.assign(m.dimension(), 0.0);
  }

  void refresh_x(std::uint32_t source, const YSlice& slice) {
    auto& held = held_[source];
    for (const auto& [local, value] : slice.entries) {
      double& slot = held.try_emplace(local, 0.0).first->second;
      forcing_[local] += value - slot;
      slot = value;
    }
  }

  void set_ranks(std::span<const double> ranks) {
    cur_.assign(ranks.begin(), ranks.end());
  }

  void reset_state() {
    std::fill(forcing_.begin(), forcing_.end(), rank::beta_of(m_.alpha()) * 1.0);
    held_.clear();
    std::fill(cur_.begin(), cur_.end(), 0.0);
    last_delta_ = 0.0;
  }

  void sweep_once(util::ThreadPool& pool) { last_delta_ = sweep(pool); }

  /// Like the group's, leaves last_sweep_delta() to sweep_once.
  std::size_t solve_to_convergence(double epsilon, std::size_t max_iterations,
                                   util::ThreadPool& pool) {
    std::size_t iterations = 0;
    while (iterations < max_iterations) {
      ++iterations;
      if (sweep(pool) <= epsilon) break;
    }
    return iterations;
  }

  /// Every held entry of `source` as one full slice.
  [[nodiscard]] YSlice held_slice(std::uint32_t source) const {
    YSlice slice;
    for (const auto& [local, value] : held_.at(source)) {
      slice.entries.emplace_back(local, value);
    }
    return slice;
  }

  [[nodiscard]] std::span<const double> ranks() const { return cur_; }
  [[nodiscard]] double last_sweep_delta() const { return last_delta_; }

 private:
  double sweep(util::ThreadPool& pool) {
    const double delta =
        m_.sweep_and_residual(cur_, nxt_, forcing_, scratch_, pool).l1_delta;
    std::swap(cur_, nxt_);
    return delta;
  }

  const rank::LinkMatrix& m_;
  std::vector<double> forcing_;
  std::map<std::uint32_t, std::map<std::uint32_t, double>> held_;
  std::vector<double> cur_;
  std::vector<double> nxt_;
  rank::SweepScratch scratch_;
  double last_delta_ = 0.0;
};

void expect_same_bits(const PageGroup& group, const DenseTwin& twin,
                      const std::string& label) {
  ASSERT_EQ(group.ranks().size(), twin.ranks().size()) << label;
  for (std::size_t i = 0; i < twin.ranks().size(); ++i) {
    ASSERT_EQ(group.ranks()[i], twin.ranks()[i]) << label << ", row " << i;
  }
  ASSERT_EQ(group.last_sweep_delta(), twin.last_sweep_delta()) << label;
}

/// Drive a group and its twin through every entry point that changes R or
/// X, stepping both after each one and comparing every bit.
void check_frontier_matches_dense_twin(std::size_t threads) {
  util::ThreadPool pool(threads);
  const std::string at = "pool " + std::to_string(threads) + ": ";
  const auto g = graph::generate_synthetic_web(graph::google2002_config(6000, 21));
  std::vector<graph::PageId> members;
  for (graph::PageId p = 0; p < g.num_pages(); ++p) {
    if (p % 3 != 0) members.push_back(p);
  }
  PageGroup group(g, members, kAlpha);
  group.finalize_efferents();
  // Hub rows longer than one block keep partials that every entry point
  // below must keep exact (the carry install rebuilds them).
  ASSERT_GT(group.matrix().num_blocks(), 0u) << at << "no blocked row";
  DenseTwin twin(group.matrix());

  const auto sweeps = [&](PageGroup& grp, DenseTwin& tw, int n,
                          const std::string& what) {
    for (int k = 0; k < n; ++k) {
      grp.sweep_once(pool);
      tw.sweep_once(pool);
      expect_same_bits(grp, tw, at + what + ", sweep " + std::to_string(k));
    }
  };
  const auto solve = [&](PageGroup& grp, DenseTwin& tw, double eps,
                         const std::string& what) {
    const std::size_t got = grp.solve_to_convergence(eps, 5000, pool);
    ASSERT_EQ(got, tw.solve_to_convergence(eps, 5000, pool)) << at << what;
    expect_same_bits(grp, tw, at + what);
  };
  const auto refresh = [&](PageGroup& grp, DenseTwin& tw, std::uint32_t source,
                           const YSlice& slice) {
    grp.refresh_x(source, slice);
    tw.refresh_x(source, slice);
  };

  sweeps(group, twin, 3, "cold start");
  // Row 10 hears only from source 1, and its X is large: when it later
  // lands at 0.0 the running sum βE + 333.3 − 333.3 keeps none of βE's low
  // bits, while a group primed afresh holds βE + 0.0.
  YSlice from_one;
  from_one.entries = {{3u, 0.4}, {10u, 333.3}, {57u, 0.02}, {2000u, 1.5}};
  YSlice from_two;
  from_two.entries = {{3u, 0.25}, {11u, 0.125}, {3000u, 0.75}};
  refresh(group, twin, 1, from_one);
  refresh(group, twin, 2, from_two);
  sweeps(group, twin, 4, "after first slices");
  solve(group, twin, 1e-10, "DPR1 solve");

  // At the exact fixed point the frontier is empty: from here only rows
  // the bookkeeping marks recompute.
  solve(group, twin, 0.0, "exact fixed point");
  refresh(group, twin, 1, from_one);  // bitwise-equal values: no change
  sweeps(group, twin, 2, "re-sent equal slice");
  YSlice zeroed;
  zeroed.entries = {{10u, 0.0}, {2000u, 1.75}};
  refresh(group, twin, 1, zeroed);
  sweeps(group, twin, 6, "entry landing at 0.0");
  solve(group, twin, 0.0, "fixed point after refresh");

  // A delta slice from a source already held at rows {3, 10, 57, 2000}:
  // unseen rows land before, between and after them, beside a changed one,
  // and each must slot in where its row sorts.
  YSlice around;
  around.entries = {{1u, 0.3}, {20u, 0.05}, {57u, 0.03}, {1000u, 0.6}, {2500u, 2.25}};
  refresh(group, twin, 1, around);
  sweeps(group, twin, 4, "delta slice around held rows");
  // A bitwise repeat of an earlier full slice: every delta is exactly 0.
  refresh(group, twin, 2, from_two);
  sweeps(group, twin, 2, "repeated full slice");
  refresh(group, twin, 1, from_one);
  sweeps(group, twin, 4, "first slice again, over the merged rows");
  solve(group, twin, 0.0, "fixed point after delta slices");

  std::vector<double> scaled(twin.ranks().begin(), twin.ranks().end());
  for (double& r : scaled) r *= 0.9;
  group.set_ranks(scaled);
  twin.set_ranks(scaled);
  sweeps(group, twin, 3, "set_ranks");
  solve(group, twin, 0.0, "fixed point after set_ranks");

  // Incremental swap: a fresh group with the same members takes the
  // frontier and R, and X arrives again as full slices.
  PageGroup fresh(g, members, kAlpha);
  fresh.finalize_efferents();
  ASSERT_TRUE(
      fresh.install_worklist_carry(group.ranks(), group.export_worklist_carry(), {}, {}))
      << at << "carry refused";
  DenseTwin fresh_twin(fresh.matrix(),
                       std::vector<double>(twin.ranks().begin(), twin.ranks().end()));
  for (const std::uint32_t source : {1u, 2u}) {
    refresh(fresh, fresh_twin, source, twin.held_slice(source));
  }
  fresh.mark_all_received_dirty();
  sweeps(fresh, fresh_twin, 4, "after carry install");
  solve(fresh, fresh_twin, 0.0, "fixed point after carry install");
  refresh(fresh, fresh_twin, 2, from_two);
  solve(fresh, fresh_twin, 1e-12, "solve after carry install");

  fresh.reset_state();
  fresh_twin.reset_state();
  expect_same_bits(fresh, fresh_twin, at + "reset_state");
  sweeps(fresh, fresh_twin, 3, "after reset_state");
  refresh(fresh, fresh_twin, 1, from_one);
  solve(fresh, fresh_twin, 1e-12, "solve after reset_state");
}

TEST(PageGroup, FrontierMatchesDenseTwin) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    check_frontier_matches_dense_twin(threads);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace p2prank::engine
