// Determinism contract of the two sweep kernels. The dense fused kernel
// must produce y bitwise-identical to the naive oracle (test::naive_multiply)
// and residuals bitwise-identical across pool sizes, on adversarial shapes
// (empty rows, dangling-heavy graphs, 1-row and 0-row matrices, rows on
// either side of a block boundary), and the same in place as into a second
// buffer; the worklist kernel at epsilon 0, sweeping in place, must match
// the dense kernel and the oracle sweep by sweep, including when a long
// row's moved sources sit in one of its blocks only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/synthetic_web.hpp"
#include "rank/link_matrix.hpp"
#include "rank/open_system.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {
namespace {

constexpr double kAlpha = 0.85;

std::vector<double> varied_x(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.25 + static_cast<double>(i % 11) * 0.37;
  }
  return x;
}

constexpr std::size_t kB = LinkMatrix::kBlockEdges;

/// Many pages with no out-links at all (dangling) and a few heavy hubs:
/// most rows are empty, most sources are dangling. `fan` more pages link to
/// page 2 alone, so with fan > kBlockEdges its row is a blocked one.
graph::WebGraph dangling_heavy(int pages, int fan = 0) {
  graph::GraphBuilder b;
  std::vector<graph::PageId> ids;
  for (int i = 0; i < pages; ++i) {
    ids.push_back(b.add_page("s.edu/p" + std::to_string(i), "s.edu"));
  }
  // Only pages 0 and 1 (and the fan) have out-links; everything else dangles.
  for (int i = 2; i < pages; ++i) {
    b.add_link(ids[0], ids[i]);
    if (i % 3 == 0) b.add_link(ids[1], ids[i]);
  }
  for (int i = 0; i < fan; ++i) {
    b.add_link(b.add_page("s.edu/fan" + std::to_string(i), "s.edu"), ids[2]);
  }
  return std::move(b).build();
}

/// `count` pages that link to `to` and have no in-links of their own, so
/// their values settle after one sweep. A large fan adds edges that never
/// move, which keeps a small moved set below the kernel's push density.
void add_fan(graph::GraphBuilder& b, const std::string& prefix, int count,
             graph::PageId to) {
  for (int i = 0; i < count; ++i) {
    b.add_link(b.add_page(prefix + std::to_string(i), "f.edu"), to);
  }
}

/// Rows of B−1, B, B+1, 2B and 2B+1 in-edges (B = kBlockEdges): a chain
/// c0 → c1 → … → c(2B) feeds each row from the chain's first pages, and
/// every row links back to c0. A bump at c0 runs down the chain and dirties
/// each row's blocks one after another, down to the one-edge last block of
/// the B+1 and 2B+1 rows.
graph::WebGraph block_boundary_rows() {
  graph::GraphBuilder b;
  std::vector<graph::PageId> chain;
  for (std::size_t i = 0; i < 2 * kB + 1; ++i) {
    chain.push_back(b.add_page("b.edu/c" + std::to_string(i), "b.edu"));
    if (i > 0) b.add_link(chain[i - 1], chain[i]);
  }
  for (const std::size_t len : {kB - 1, kB, kB + 1, 2 * kB, 2 * kB + 1}) {
    const auto row = b.add_page("b.edu/r" + std::to_string(len), "b.edu");
    for (std::size_t i = 0; i < len; ++i) b.add_link(chain[i], row);
    b.add_link(row, chain[0]);
  }
  add_fan(b, "b.edu/f", 400, b.add_page("b.edu/sink", "b.edu"));
  return std::move(b).build();
}

/// A dangling hub of 4B+7 in-edges (five blocks, the last of 7 edges) whose
/// sources have no in-links: bumping a source's forcing moves that source
/// alone, so the hub's moved sources lie exactly where the test puts them.
constexpr std::size_t kHubEdges = 4 * kB + 7;
graph::WebGraph isolated_hub() {
  graph::GraphBuilder b;
  add_fan(b, "h.edu/s", static_cast<int>(kHubEdges), b.add_page("h.edu/hub", "h.edu"));
  add_fan(b, "h.edu/f", 600, b.add_page("h.edu/sink", "h.edu"));
  return std::move(b).build();
}

/// The row of exactly `len` in-edges (the fixture has one).
std::uint32_t row_of_length(const LinkMatrix& m, std::size_t len) {
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    if (m.row_sources(v).size() == len) return static_cast<std::uint32_t>(v);
  }
  ADD_FAILURE() << "no row of " << len << " in-edges";
  return 0;
}

void expect_bitwise_equal(std::span<const double> got, std::span<const double> want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " index " << i;  // exact, not near
  }
}

void check_all_variants(const LinkMatrix& m) {
  const std::size_t n = m.dimension();
  const auto x = varied_x(n);
  std::vector<double> forcing(n);
  for (std::size_t i = 0; i < n; ++i) forcing[i] = 0.15 + 0.01 * static_cast<double>(i % 5);

  // Reference: the naive oracle, then the unfused forcing add.
  const std::vector<double> y_ref = test::naive_multiply(m, x);
  std::vector<double> y_forced_ref = y_ref;
  for (std::size_t i = 0; i < n; ++i) y_forced_ref[i] += forcing[i];
  const double l1_ref = util::l1_distance(y_forced_ref, x);

  SweepScratch scratch;
  std::vector<double> y(n);
  SweepStats first_stats;
  bool have_stats = false;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const std::string label = "pool size " + std::to_string(threads);

    std::fill(y.begin(), y.end(), -5.0);
    const SweepStats stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
    expect_bitwise_equal(y, y_forced_ref, "fused sweep, " + label);
    if (!have_stats) {
      first_stats = stats;
      have_stats = true;
      // The grain-ordered combine is a different summation order than the
      // linear l1_distance pass, so compare with a tolerance once...
      EXPECT_NEAR(stats.l1_delta, l1_ref, 1e-9 * (1.0 + l1_ref));
    } else {
      // ...but across pool sizes the residual must be bitwise identical.
      EXPECT_EQ(stats.l1_delta, first_stats.l1_delta) << label;
      EXPECT_EQ(stats.linf_delta, first_stats.linf_delta) << label;
    }

    std::fill(y.begin(), y.end(), -6.0);
    const SweepStats no_forcing = m.sweep_and_residual(x, y, {}, scratch, pool);
    expect_bitwise_equal(y, y_ref, "fused sweep no forcing, " + label);
    (void)no_forcing;
  }

  // Same pool, repeated runs: identical results (no run-to-run drift).
  util::ThreadPool pool(4);
  std::vector<double> y2(n);
  const SweepStats a = m.sweep_and_residual(x, y, forcing, scratch, pool);
  const SweepStats b = m.sweep_and_residual(x, y2, forcing, scratch, pool);
  expect_bitwise_equal(y, y2, "repeated fused run");
  EXPECT_EQ(a.l1_delta, b.l1_delta);
  EXPECT_EQ(a.linf_delta, b.linf_delta);
}

TEST(RankSweep, SyntheticWebAllVariantsBitwiseIdentical) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  check_all_variants(LinkMatrix::from_graph(g, kAlpha));
}

TEST(RankSweep, EmptyRowsStarGraph) {
  // Star: every leaf row is empty (leaves have no in-links).
  check_all_variants(LinkMatrix::from_graph(test::star(50), kAlpha));
}

TEST(RankSweep, DanglingHeavyGraph) {
  check_all_variants(LinkMatrix::from_graph(dangling_heavy(500), kAlpha));
}

TEST(RankSweep, ChainGraph) {
  check_all_variants(LinkMatrix::from_graph(test::chain(97), kAlpha));
}

TEST(RankSweep, OneRowMatrix) {
  // Subset of a single page: dimension 1, zero entries.
  const auto g = test::chain(4);
  const std::vector<graph::PageId> subset{1};
  const auto m = LinkMatrix::from_subset(g, subset, kAlpha);
  ASSERT_EQ(m.dimension(), 1u);
  ASSERT_EQ(m.num_entries(), 0u);
  check_all_variants(m);

  // With forcing, y is exactly the forcing; the residual is |f - x|.
  SweepScratch scratch;
  util::ThreadPool pool(2);
  const std::vector<double> x{2.0};
  const std::vector<double> forcing{0.5};
  std::vector<double> y{-1.0};
  const auto stats = m.sweep_and_residual(x, y, forcing, scratch, pool);
  EXPECT_EQ(y[0], 0.5);
  EXPECT_EQ(stats.l1_delta, 1.5);
  EXPECT_EQ(stats.linf_delta, 1.5);
}

TEST(RankSweep, EmptyMatrix) {
  const auto g = test::two_cycle();
  const auto m = LinkMatrix::from_subset(g, {}, kAlpha);
  SweepScratch scratch;
  util::ThreadPool pool(2);
  const auto stats = m.sweep_and_residual({}, {}, {}, scratch, pool);
  EXPECT_EQ(stats.l1_delta, 0.0);
  EXPECT_EQ(stats.linf_delta, 0.0);
}

TEST(RankSweep, SubsetMatrixAllVariants) {
  // Exercise the from_subset layout (local indices) under every kernel.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 5));
  std::vector<graph::PageId> members;
  for (graph::PageId p = 0; p < g.num_pages(); p += 3) members.push_back(p);
  check_all_variants(LinkMatrix::from_subset(g, members, kAlpha));
}

TEST(RankSweep, SweepGrainIsMatrixDerived) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  EXPECT_GE(m.sweep_grain(), 1u);
  EXPECT_LE(m.sweep_grain(), m.dimension());
  // Grain count covers the dimension exactly.
  const std::size_t grains = util::ThreadPool::num_grains(m.dimension(), m.sweep_grain());
  EXPECT_GE(grains * m.sweep_grain(), m.dimension());
  EXPECT_LT((grains - 1) * m.sweep_grain(), m.dimension());
}

TEST(RankSweep, DenseKernelInPlaceMatchesTwoBuffers) {
  // sweep_and_residual(x, x, …) forms every contribution before it writes a
  // row, so sweeping in place must give the two-buffer iterates and
  // residuals bit for bit, sweep after sweep, blocked rows included.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 5));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  ASSERT_GT(test::longest_row(m), kB) << "fixture has no blocked row";
  const std::size_t n = m.dimension();
  std::vector<double> forcing(n);
  for (std::size_t i = 0; i < n; ++i) forcing[i] = 0.15 + 0.01 * static_cast<double>(i % 5);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    SweepScratch scratch;
    std::vector<double> in_place = varied_x(n);
    std::vector<double> cur = in_place;
    std::vector<double> nxt(n, 0.0);
    for (int k = 0; k < 6; ++k) {
      const std::string at =
          "pool " + std::to_string(threads) + ", sweep " + std::to_string(k);
      const SweepStats want = m.sweep_and_residual(cur, nxt, forcing, scratch, pool);
      std::swap(cur, nxt);
      const SweepStats got =
          m.sweep_and_residual(in_place, in_place, forcing, scratch, pool);
      expect_bitwise_equal(in_place, cur, at);
      ASSERT_EQ(got.l1_delta, want.l1_delta) << at;
      ASSERT_EQ(got.linf_delta, want.linf_delta) << at;
    }
  }
}

// --- Worklist / frontier kernel (DESIGN.md §6) -----------------------------

graph::WebGraph chain_graph(int pages, bool close_cycle) {
  graph::GraphBuilder b;
  std::vector<graph::PageId> ids;
  for (int i = 0; i < pages; ++i) {
    ids.push_back(b.add_page("c.edu/p" + std::to_string(i), "c.edu"));
  }
  for (int i = 0; i + 1 < pages; ++i) b.add_link(ids[i], ids[i + 1]);
  if (close_cycle) b.add_link(ids[pages - 1], ids[0]);
  return std::move(b).build();
}

/// Drive the dense kernel (ping-pong) and the worklist kernel (in place)
/// through the same iteration — including a mid-run forcing change, and a
/// WorklistState reset before sweep `reset_at` (0: none after the priming
/// sweep) that forces a dense re-prime mid-trajectory — and require bitwise
/// identical values *and* residuals at every sweep, for pool sizes 1/2/8.
void check_worklist_matches_dense(const LinkMatrix& m, std::size_t sweeps,
                                  std::size_t reset_at) {
  const std::size_t n = m.dimension();
  std::vector<double> base_forcing(n);
  for (std::size_t i = 0; i < n; ++i) {
    base_forcing[i] = 0.15 + 0.01 * static_cast<double>(i % 5);
  }

  // The block path must have work: some row is longer than one block.
  ASSERT_GT(test::longest_row(m), kB) << "fixture has no blocked row";

  // Dense reference trajectory (serial — pool size is already covered by
  // check_all_variants for the dense kernel), each sweep checked against
  // the oracle.
  std::vector<std::vector<double>> ref_y;
  std::vector<SweepStats> ref_stats;
  {
    util::ThreadPool ref_pool(1);
    SweepScratch ref_scratch;
    std::vector<double> cur = varied_x(n);
    std::vector<double> nxt(n, 0.0);
    std::vector<double> f = base_forcing;
    for (std::size_t s = 0; s < sweeps; ++s) {
      if (s == sweeps / 2 && n > 0) f[n / 2] += 0.25;
      std::vector<double> oracle = test::naive_multiply(m, cur);
      for (std::size_t i = 0; i < n; ++i) oracle[i] += f[i];
      ref_stats.push_back(m.sweep_and_residual(cur, nxt, f, ref_scratch, ref_pool));
      std::swap(cur, nxt);
      expect_bitwise_equal(cur, oracle, "dense sweep " + std::to_string(s));
      ref_y.push_back(cur);
    }
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const std::string label = "worklist pool size " + std::to_string(threads);
    WorklistState state;
    SweepScratch scratch;
    std::vector<double> cur = varied_x(n);
    std::vector<double> f = base_forcing;
    for (std::size_t s = 0; s < sweeps; ++s) {
      if (s == sweeps / 2 && n > 0) {
        f[n / 2] += 0.25;
        state.mark_forcing_dirty(n / 2);
      }
      if (s == reset_at) state.reset();
      const std::uint64_t dense_before = state.dense_sweeps;
      const SweepStats stats = m.sweep_and_residual_worklist(cur, f, scratch, state, pool);
      if (s == reset_at && n > 0) {
        ASSERT_EQ(state.dense_sweeps, dense_before + 1) << label << " re-prime";
      }
      expect_bitwise_equal(cur, ref_y[s], label + " sweep " + std::to_string(s));
      ASSERT_EQ(stats.l1_delta, ref_stats[s].l1_delta) << label << " sweep " << s;
      ASSERT_EQ(stats.linf_delta, ref_stats[s].linf_delta) << label << " sweep " << s;
    }
    EXPECT_EQ(state.sweeps, sweeps);
  }
}

TEST(RankSweep, WorklistMatchesDenseSyntheticWeb) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  check_worklist_matches_dense(LinkMatrix::from_graph(g, kAlpha), 20, 13);
}

TEST(RankSweep, WorklistMatchesDenseDanglingHeavy) {
  // Most sources are dangling, so the frontier collapses within a few
  // sweeps; no reset keeps it collapsed (pure sparse path). A fan of B + 8
  // pages makes page 2's row a two-block one.
  check_worklist_matches_dense(
      LinkMatrix::from_graph(dangling_heavy(500, static_cast<int>(kB) + 8), kAlpha), 80,
      0);
}

TEST(RankSweep, WorklistMatchesDenseChain) {
  // A chain whose pages all link to one hub as well: the wave running down
  // the chain dirties the hub's blocks one after another.
  graph::GraphBuilder b;
  const auto hub = b.add_page("c.edu/hub", "c.edu");
  graph::PageId prev = hub;
  for (int i = 0; i < 97; ++i) {
    const auto page = b.add_page("c.edu/p" + std::to_string(i), "c.edu");
    if (i > 0) b.add_link(prev, page);
    b.add_link(page, hub);
    prev = page;
  }
  check_worklist_matches_dense(LinkMatrix::from_graph(std::move(b).build(), kAlpha),
                               150, 0);
}

TEST(RankSweep, WorklistMatchesDenseStar) {
  // 150 leaves: the hub's row spans three blocks.
  check_worklist_matches_dense(LinkMatrix::from_graph(test::star(150), kAlpha), 30, 0);
}

TEST(RankSweep, WorklistMatchesDenseSubset) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 5));
  std::vector<graph::PageId> members;
  for (graph::PageId p = 0; p < g.num_pages(); p += 3) members.push_back(p);
  check_worklist_matches_dense(LinkMatrix::from_subset(g, members, kAlpha), 30, 21);
}

TEST(RankSweep, WorklistSinglePageFrontier) {
  const auto m = LinkMatrix::from_graph(dangling_heavy(400), kAlpha);
  const std::size_t n = m.dimension();
  std::vector<double> forcing(n, 0.15);
  WorklistState state;
  SweepScratch scratch;
  util::ThreadPool pool(2);
  std::vector<double> cur = varied_x(n);

  // Iterate to the exact (bitwise) fixed point; the frontier dies with it.
  std::size_t s = 0;
  for (; s < 2000; ++s) {
    const auto stats = m.sweep_and_residual_worklist(cur, forcing, scratch, state, pool);
    if (stats.l1_delta == 0.0) break;
  }
  ASSERT_LT(s, 2000u) << "no exact fixed point reached";

  // At the fixed point a sweep computes no rows at all.
  const std::uint64_t settled = state.rows_computed;
  (void)m.sweep_and_residual_worklist(cur, forcing, scratch, state, pool);
  EXPECT_EQ(state.rows_computed, settled);

  // Perturb a single page's forcing: exactly that one row recomputes.
  forcing[n - 1] += 0.5;
  state.mark_forcing_dirty(n - 1);
  const auto stats = m.sweep_and_residual_worklist(cur, forcing, scratch, state, pool);
  EXPECT_EQ(state.rows_computed, settled + 1);
  EXPECT_NEAR(stats.l1_delta, 0.5, 1e-12);

  // From here the frontier regrows along out-edges only; values and
  // residuals must stay bitwise equal to a dense iteration.
  std::vector<double> dcur = cur;
  std::vector<double> dnxt(n, 0.0);
  SweepScratch dscratch;
  for (int k = 0; k < 10; ++k) {
    const auto ws = m.sweep_and_residual_worklist(cur, forcing, scratch, state, pool);
    const auto ds = m.sweep_and_residual(dcur, dnxt, forcing, dscratch, pool);
    std::swap(dcur, dnxt);
    expect_bitwise_equal(cur, dcur, "post-perturb sweep " + std::to_string(k));
    ASSERT_EQ(ws.l1_delta, ds.l1_delta) << "post-perturb sweep " << k;
  }
}

TEST(RankSweep, WorklistFrontierRegrowsAfterGraphUpdate) {
  // Converge on a chain, then swap in a mutated graph (extra closing edge),
  // carrying the rank vector over — the engine's graph-update path. After
  // reset() the first sweep is dense and the trajectory on the new matrix
  // stays bitwise-identical to the dense kernel while the frontier regrows.
  const auto m1 = LinkMatrix::from_graph(chain_graph(60, false), kAlpha);
  const auto m2 = LinkMatrix::from_graph(chain_graph(60, true), kAlpha);
  const std::size_t n = m1.dimension();
  const std::vector<double> forcing(n, 0.15);
  WorklistState state;
  SweepScratch scratch;
  util::ThreadPool pool(2);
  std::vector<double> cur = varied_x(n);
  std::size_t s = 0;
  for (; s < 2000; ++s) {
    const auto stats = m1.sweep_and_residual_worklist(cur, forcing, scratch, state, pool);
    if (stats.l1_delta == 0.0) break;
  }
  ASSERT_LT(s, 2000u);

  state.reset();  // the graph changed under the frontier
  std::vector<double> dcur = cur;
  std::vector<double> dnxt(n, 0.0);
  SweepScratch dscratch;
  const std::uint64_t dense_before = state.dense_sweeps;
  for (int k = 0; k < 40; ++k) {
    const auto ws = m2.sweep_and_residual_worklist(cur, forcing, scratch, state, pool);
    const auto ds = m2.sweep_and_residual(dcur, dnxt, forcing, dscratch, pool);
    if (k == 0) {
      EXPECT_EQ(state.dense_sweeps, dense_before + 1);  // reset forces a re-prime
    }
    std::swap(dcur, dnxt);
    expect_bitwise_equal(cur, dcur, "post-update sweep " + std::to_string(k));
    ASSERT_EQ(ws.l1_delta, ds.l1_delta) << "post-update sweep " << k;
  }
}

TEST(RankSweep, WorklistRebindingSweepsDenseOnce) {
  // The differ bitmap speaks of the one rank vector the state is bound to.
  // A state primed at the bitwise fixed point and swept on another vector
  // holding the same values must re-prime with exactly one dense sweep
  // (bound to its old vector, it would sweep nothing), then keep to the
  // dense trajectory bit for bit once forcing moves.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 5));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  ASSERT_GT(test::longest_row(m), kB) << "fixture has no blocked row";
  const std::size_t n = m.dimension();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const std::string label = "pool " + std::to_string(threads);
    std::vector<double> forcing(n, 0.15);
    WorklistState state;
    SweepScratch scratch;
    std::vector<double> first = varied_x(n);
    std::size_t s = 0;
    for (; s < 2000; ++s) {
      if (m.sweep_and_residual_worklist(first, forcing, scratch, state, pool).l1_delta ==
          0.0) {
        break;
      }
    }
    ASSERT_LT(s, 2000u) << label << ": no exact fixed point reached";

    std::vector<double> second = first;
    std::vector<double> dcur = first;
    std::vector<double> dnxt(n, 0.0);
    SweepScratch dscratch;
    const std::uint64_t dense_before = state.dense_sweeps;
    for (int k = 0; k < 8; ++k) {
      const std::string at = label + ", sweep " + std::to_string(k) + " after rebinding";
      if (k == 1) {
        forcing[n / 3] += 0.5;
        state.mark_forcing_dirty(n / 3);
      }
      const auto ws = m.sweep_and_residual_worklist(second, forcing, scratch, state, pool);
      const auto ds = m.sweep_and_residual(dcur, dnxt, forcing, dscratch, pool);
      std::swap(dcur, dnxt);
      if (k == 0) {
        ASSERT_EQ(state.dense_sweeps, dense_before + 1) << at;
      }
      expect_bitwise_equal(second, dcur, at);
      ASSERT_EQ(ws.l1_delta, ds.l1_delta) << at;
      ASSERT_EQ(ws.linf_delta, ds.linf_delta) << at;
    }
  }
}

TEST(RankSweep, WorklistSolveMatchesDenseSolve) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 5));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  const std::size_t n = m.dimension();
  std::vector<double> forcing(n);
  for (std::size_t i = 0; i < n; ++i) {
    forcing[i] = 0.15 + 0.01 * static_cast<double>(i % 5);
  }
  SolveOptions opts;
  opts.epsilon = 1e-10;

  util::ThreadPool ref_pool(1);
  const SolveResult dense = solve_open_system(m, forcing, {}, opts, ref_pool);
  ASSERT_TRUE(dense.converged);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    std::vector<double> ranks(n, 0.0);
    SweepScratch scratch;
    WorklistState state;
    const SolveStats got =
        iterate_open_system(m, forcing, ranks, opts, scratch, pool, &state);
    EXPECT_TRUE(got.converged);
    EXPECT_EQ(got.iterations, dense.iterations) << threads;
    EXPECT_EQ(got.final_delta, dense.final_delta) << threads;
    expect_bitwise_equal(ranks, dense.ranks,
                         "worklist solve, pool " + std::to_string(threads));
  }
}

TEST(RankSweep, PushCsrMirrorsPullEdges) {
  // The push CSR (out_targets) is the transpose of the pull CSR in the
  // blocked encoding: per source, one entry per pull edge, rows ascending;
  // an edge into a row longer than kBlockEdges holds kBlockTag | the block
  // its pull position falls in (test::push_oracle), and target_row decodes
  // every entry back to its row. So the scatter reaches a row — through its
  // block when the row is blocked — iff some pull edge feeds it.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 9));
  const auto m = LinkMatrix::from_graph(g, kAlpha);
  ASSERT_GT(test::longest_row(m), kB) << "fixture has no blocked row";
  std::vector<std::vector<std::uint32_t>> expect_rows(m.dimension());
  std::size_t expect_blocks = 0;
  for (std::size_t v = 0; v < m.dimension(); ++v) {
    for (const std::uint32_t u : m.row_sources(v)) {
      expect_rows[u].push_back(static_cast<std::uint32_t>(v));
    }
    const std::size_t len = m.row_sources(v).size();
    if (len > kB) expect_blocks += (len + kB - 1) / kB;
  }
  EXPECT_EQ(m.num_blocks(), expect_blocks);
  const auto expect_entries = test::push_oracle(m);
  std::size_t total = 0;
  std::size_t tagged = 0;
  for (std::size_t u = 0; u < m.dimension(); ++u) {
    const auto got = m.out_targets(u);
    ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expect_entries[u])
        << "source " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(m.target_row(got[i]), expect_rows[u][i]) << "source " << u;
      tagged += (got[i] & LinkMatrix::kBlockTag) != 0 ? 1 : 0;
    }
    total += got.size();
  }
  EXPECT_EQ(total, m.num_entries());
  EXPECT_GT(tagged, 0u);
}

/// Converge the frontier kernel to its bitwise fixed point, then add 0.5 to
/// the forcing of `bumped` (marking each row forcing-dirty) and sweep
/// `sweeps` more times. Every sweep after the bump must equal a dense sweep
/// of the same input and the oracle bit for bit, residuals included, at
/// pools 1/2/8, and at least one must take the sparse path. With
/// `sparse_only`, none may fall back to a dense sweep, so a blocked row
/// recomputes from its kept partials and its dirty blocks alone.
void check_bump_stays_exact(const LinkMatrix& m, const std::vector<std::uint32_t>& bumped,
                            std::size_t sweeps, bool sparse_only) {
  const std::size_t n = m.dimension();
  ASSERT_GT(test::longest_row(m), kB) << "fixture has no blocked row";
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const std::string label = "pool size " + std::to_string(threads);
    std::vector<double> f(n);
    for (std::size_t i = 0; i < n; ++i) f[i] = 0.15 + 0.01 * static_cast<double>(i % 5);
    WorklistState state;
    SweepScratch scratch;
    SweepScratch dense_scratch;
    std::vector<double> cur = varied_x(n);
    std::vector<double> dense_out(n, 0.0);
    std::size_t s = 0;
    for (; s < 2000; ++s) {
      const auto stats = m.sweep_and_residual_worklist(cur, f, scratch, state, pool);
      if (stats.l1_delta == 0.0) break;
    }
    ASSERT_LT(s, 2000u) << label << ": no exact fixed point reached";

    const std::uint64_t dense_before = state.dense_sweeps;
    for (const std::uint32_t row : bumped) {
      f[row] += 0.5;
      state.mark_forcing_dirty(row);
    }
    std::size_t sparse = 0;
    for (std::size_t k = 0; k < sweeps; ++k) {
      const std::string at = label + ", sweep " + std::to_string(k) + " after the bump";
      std::vector<double> oracle = test::naive_multiply(m, cur);
      for (std::size_t i = 0; i < n; ++i) oracle[i] += f[i];
      const SweepStats ds = m.sweep_and_residual(cur, dense_out, f, dense_scratch, pool);
      const std::uint64_t dense_sweeps = state.dense_sweeps;
      const SweepStats ws = m.sweep_and_residual_worklist(cur, f, scratch, state, pool);
      sparse += state.dense_sweeps == dense_sweeps ? 1 : 0;
      expect_bitwise_equal(cur, dense_out, at + ", against dense");
      expect_bitwise_equal(cur, oracle, at + ", against the oracle");
      ASSERT_EQ(ws.l1_delta, ds.l1_delta) << at;
      ASSERT_EQ(ws.linf_delta, ds.linf_delta) << at;
    }
    EXPECT_GT(sparse, 0u) << label << ": no sweep took the sparse path";
    if (sparse_only) {
      EXPECT_EQ(state.dense_sweeps, dense_before) << label;
    }
  }
}

TEST(RankSweep, BlockBoundaryRowsAllVariants) {
  const auto m = LinkMatrix::from_graph(block_boundary_rows(), kAlpha);
  for (const std::size_t len : {kB - 1, kB, kB + 1, 2 * kB, 2 * kB + 1}) {
    (void)row_of_length(m, len);
  }
  check_all_variants(m);
}

TEST(RankSweep, BlockBoundaryRowsWorklistMatchesDenseAndOracle) {
  const auto m = LinkMatrix::from_graph(block_boundary_rows(), kAlpha);
  // c0 is the one source of the B−1 row that is also fed back by every row.
  const std::uint32_t c0 = m.row_sources(row_of_length(m, kB - 1))[0];
  check_bump_stays_exact(m, {c0}, 200, false);
}

/// Bump the sources of one block of the isolated hub: only that block may
/// be re-gathered, and the hub must still match dense and the oracle.
void check_hub_block(std::size_t block) {
  const auto m = LinkMatrix::from_graph(isolated_hub(), kAlpha);
  const auto sources = m.row_sources(row_of_length(m, kHubEdges));
  ASSERT_LT(block * kB, sources.size());
  const auto in_block =
      sources.subspan(block * kB, std::min(kB, sources.size() - block * kB));
  check_bump_stays_exact(m, {in_block.begin(), in_block.end()}, 6, true);
}

TEST(RankSweep, HubMovedSourcesInFirstBlockOnly) { check_hub_block(0); }

TEST(RankSweep, HubMovedSourcesInMiddleBlockOnly) { check_hub_block(2); }

TEST(RankSweep, HubMovedSourcesInLastBlockOnly) {
  ASSERT_EQ((kHubEdges + kB - 1) / kB, 5u);
  check_hub_block(4);
}

TEST(RankSweep, HubDirtyOnlyThroughForcingReaddsItsPartials) {
  // No source moves: the hub recomputes because its own forcing changed,
  // from its kept block partials alone.
  const auto m = LinkMatrix::from_graph(isolated_hub(), kAlpha);
  check_bump_stays_exact(m, {row_of_length(m, kHubEdges)}, 4, true);
}

TEST(RankSweep, SweepGrainIsWordAligned) {
  // Worklist bitmaps pack 64 rows per word; grains must own whole words.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 17));
  EXPECT_EQ(LinkMatrix::from_graph(g, kAlpha).sweep_grain() % 64, 0u);
  EXPECT_EQ(LinkMatrix::from_graph(test::chain(10), kAlpha).sweep_grain() % 64, 0u);
}

}  // namespace
}  // namespace p2prank::rank
