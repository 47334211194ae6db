// The sparse iteration matrix A of the open-system model (Section 3):
// A(u,v) = α / d(u) for a link u -> v, 0 otherwise, restricted to a page
// subset. Stored pull-style (per destination, list of sources) so a Jacobi
// sweep parallelizes over destinations with no write conflicts.
//
// d(u) is always the page's *global* out-degree (crawled + external
// targets): a link to an uncrawled page still divides u's rank, and the
// share it carries leaves the open system. Likewise, links from u to pages
// *outside the subset* are not rows of this matrix — their rank share exits
// the group and is the business of the efferent matrix (engine/).
//
// Every edge weight is just α/d(source), so the matrix keeps one weight per
// *source*, never per edge: a sweep first forms the contribution vector
// contrib[u] = x[u]·(α/d(u)), and the edge loop then reads 12 bytes/edge
// (4B source index + 8B gather). A row longer than kBlockEdges is summed
// block by block, so the frontier kernel can keep each block's sum and
// re-gather only the blocks whose sources moved. Two kernels run on this
// layout — the dense fused sweep_and_residual and the residual-driven
// sweep_and_residual_worklist, which the engine runs — and they produce
// bitwise-identical values and residuals for any pool size. See DESIGN.md
// "Kernel layout".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/web_graph.hpp"
#include "rank/rank_types.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::rank {

/// Residual of one fused sweep: norms of (out − in), accumulated per grain
/// during the sweep and combined in grain order (deterministic).
struct SweepStats {
  double l1_delta = 0.0;
  double linf_delta = 0.0;
};

/// Reusable scratch for contribution sweeps; pass the same instance to
/// successive sweeps to amortize the allocations across iterations.
struct SweepScratch {
  std::vector<double> contrib;       // x[u]·α/d(u) per local source
  std::vector<double> partial_l1;    // per-grain residual partials
  std::vector<double> partial_linf;
};

/// Persistent frontier state for sweep_and_residual_worklist. Owned by the
/// caller (one per rank vector it sweeps in place); reset() forces the next
/// sweep dense, which re-primes every derived bitmap. LinkMatrix::fit_frontier
/// sizes it. All bitmaps are 64 rows per word, and sweep grains are
/// 64-aligned so parallel grains own whole words.
struct WorklistState {
  /// Last *propagated* contribution per source: updated whenever a source's
  /// contribution changes bitwise (every source, in a dense sweep). Rows
  /// recompute by gathering these.
  std::vector<double> contrib;
  std::vector<std::uint64_t> differ;         // row moved in the last sweep
  std::vector<std::uint64_t> dirty;          // rows to recompute (per-sweep scratch)
  std::vector<std::uint64_t> src_active;     // sources that propagated (scratch)
  std::vector<std::uint64_t> forcing_dirty;  // forcing[v] changed since last sweep
  std::vector<std::uint32_t> active_grains;  // frontier grain ids (scratch)
  std::vector<std::uint64_t> grain_edges;    // per-grain active out-edge tallies
  /// Sum over `contrib` of each block of the rows longer than
  /// LinkMatrix::kBlockEdges, as of the row's last recompute: a dirty long
  /// row re-gathers only its dirty blocks and re-adds the rest.
  std::vector<double> partial;
  std::vector<std::uint64_t> block_dirty;    // blocks to re-gather (scratch)
  bool primed = false;
  // The rank vector the differ bitmap talks about; a sweep on any other
  // vector auto-unprimes.
  const double* bound = nullptr;
  // Cumulative tallies, deterministic across pool sizes (derived from the
  // bitmaps, which depend only on the values swept). rows_copied stays 0: a
  // sweep updates the ranks in place and copies no row.
  std::uint64_t sweeps = 0;
  std::uint64_t dense_sweeps = 0;
  std::uint64_t rows_computed = 0;
  std::uint64_t rows_copied = 0;

  /// Drop all frontier knowledge: the next sweep runs dense. Required after
  /// any out-of-band change to the rank vector (warm start, checkpoint
  /// restore, group rebuild).
  void reset() noexcept {
    primed = false;
    bound = nullptr;
  }

  /// Record that forcing[row] changed, so the row must recompute next sweep
  /// even if no source moved. No-op while unprimed (a dense sweep is coming
  /// anyway, and the bitmaps may not be sized yet).
  void mark_forcing_dirty(std::size_t row) noexcept {
    if (!primed || (row >> 6) >= forcing_dirty.size()) return;
    forcing_dirty[row >> 6] |= std::uint64_t{1} << (row & 63);
  }
};

/// Where every page of a crawl sits in a partition: page p is local row
/// `local_of[p]` of group `group_of[p]`. Both spans cover every page.
struct PagePlacement {
  std::span<const std::uint32_t> group_of;
  std::span<const std::uint32_t> local_of;
};

class LinkMatrix {
 public:
  /// Edges per block. Row v's value is the sum of its blocks — edges
  /// [k·B, (k+1)·B) of the row, each summed in the two-lane pattern — added
  /// in block order starting from 0.0. A row of at most B edges is one
  /// block. Every kernel and the test oracle sum rows this way.
  static constexpr std::size_t kBlockEdges = 64;
  /// Set on a push entry (out_targets) that names a block, not a row.
  static constexpr std::uint32_t kBlockTag = std::uint32_t{1} << 31;

  /// Matrix over the whole crawl.
  [[nodiscard]] static LinkMatrix from_graph(const graph::WebGraph& g, double alpha);

  /// Matrix over one group of a partition. `pages` are the group's members,
  /// ascending, at their local rows: placement puts each pages[i] at
  /// (group, i). An in-link is kept when its source sits in `group` too,
  /// read off the placement in one lookup.
  [[nodiscard]] static LinkMatrix from_group(const graph::WebGraph& g,
                                             std::span<const graph::PageId> pages,
                                             const PagePlacement& placement,
                                             std::uint32_t group, double alpha);

  /// Matrix over a subset of pages (ascending global PageIds). Only edges
  /// with both endpoints in the subset are kept. Builds the placement of a
  /// two-group partition (the subset and the rest) and runs from_group.
  [[nodiscard]] static LinkMatrix from_subset(const graph::WebGraph& g,
                                              std::span<const graph::PageId> pages,
                                              double alpha);

  [[nodiscard]] std::size_t dimension() const noexcept { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_entries() const noexcept { return sources_.size(); }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// Fused Jacobi sweep: out = A·in + forcing (forcing may be empty = zero),
  /// returning the L1/L∞ norms of (out − in) accumulated during the sweep —
  /// no second pass over the vectors. `out` may be `in`: every contribution
  /// is formed before any row is written, so the sweep is the same in place.
  /// The residual is combined from per-grain partials in grain order, and
  /// grains depend only on the matrix, so the result (y *and* stats) is
  /// bitwise-deterministic across runs and pool sizes.
  SweepStats sweep_and_residual(std::span<const double> in, std::span<double> out,
                                std::span<const double> forcing,
                                SweepScratch& scratch, util::ThreadPool& pool) const;

  /// Residual-driven worklist sweep of `ranks` in place: like
  /// sweep_and_residual(ranks, ranks, …), but rows whose inputs did not
  /// change bitwise since they last recomputed are skipped (they already
  /// hold what a recompute would write), and when the frontier is small the
  /// dirty set is built by *pushing* along out-edges of active sources
  /// instead of scanning all rows. Every sweep — values and residual — is
  /// bitwise-identical to sweep_and_residual for any pool size. `state`
  /// must persist alongside `ranks`; the kernel unprimes itself (one dense
  /// sweep) whenever it sees another vector, and state.reset() forces the
  /// next sweep dense.
  SweepStats sweep_and_residual_worklist(std::span<double> ranks,
                                         std::span<const double> forcing,
                                         SweepScratch& scratch, WorklistState& state,
                                         util::ThreadPool& pool) const;

  /// Rows per parallel grain of sweep kernels (~64KB of row data each,
  /// rounded up to a multiple of 64 so each grain owns whole bitmap words);
  /// a function of the matrix shape only. Exposed for tests and sizing.
  [[nodiscard]] std::size_t sweep_grain() const noexcept { return sweep_grain_; }

  /// Out-edges of local source u (push CSR: the transpose adjacency used to
  /// scatter frontier bits), destinations ascending. An edge into a row of
  /// at most kBlockEdges in-edges holds the row; one into a longer row holds
  /// kBlockTag | the id of the block its pull position falls in. Blocks are
  /// numbered in row order. Exposed for tests.
  [[nodiscard]] std::span<const std::uint32_t> out_targets(std::size_t u) const noexcept {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// The destination row of push entry t (decodes out_targets; for tests).
  [[nodiscard]] std::uint32_t target_row(std::uint32_t t) const noexcept;

  /// Blocks of the rows longer than kBlockEdges (rows of at most
  /// kBlockEdges keep no partial).
  [[nodiscard]] std::size_t num_blocks() const noexcept { return block_begin_.back(); }

  /// Size every array of `state` for this matrix, zeroed, and unprime it.
  /// The one place a frontier is sized: the worklist kernel fits a state of
  /// another shape, and a long-lived state is fitted when its owner is
  /// wired (PageGroup), not in its first sweep.
  void fit_frontier(WorklistState& state) const;

  /// Set every block partial from state.contrib (which must hold one value
  /// per source): a frontier carried onto this matrix keeps its
  /// contributions, but its blocks are this matrix's. `state` must be
  /// fitted to this matrix.
  void refresh_block_partials(WorklistState& state) const;

  /// In-edges of local row v: the local source index of each entry.
  [[nodiscard]] std::span<const std::uint32_t> row_sources(std::size_t v) const noexcept {
    return {sources_.data() + offsets_[v], sources_.data() + offsets_[v + 1]};
  }

  /// α/d_global(u) per local source u (0 for pages with no out-links): the
  /// weight of every edge leaving u, which the sweep kernels scale x by.
  [[nodiscard]] std::span<const double> source_weights() const noexcept {
    return source_weight_;
  }

  /// The paper's ||A||_∞ (source-major row sums): the maximum, over source
  /// pages, of the total weight that source contributes inside the matrix.
  /// This is the contraction bound of Theorems 3.1–3.3; it is ≤ α always,
  /// and < α for sources with links leaving the subset or the crawl.
  [[nodiscard]] double contraction_norm() const noexcept;

 private:
  LinkMatrix() = default;

  void finish_layout();

  std::vector<std::uint64_t> offsets_;       // size dim+1
  std::vector<std::uint32_t> sources_;       // local source index per entry
  std::vector<double> source_weight_;        // alpha / d_global(u), per local source
  std::vector<std::uint64_t> out_offsets_;   // push CSR: size dim+1
  std::vector<std::uint32_t> out_targets_;   // push CSR: row or tagged block per out-edge
  std::vector<std::uint32_t> blocked_rows_;  // rows longer than kBlockEdges, ascending
  std::vector<std::uint32_t> block_begin_;   // first block of each, then num_blocks()
  double alpha_ = 0.0;
  std::size_t sweep_grain_ = 1;              // rows per grain (fixed per matrix)
};

}  // namespace p2prank::rank
