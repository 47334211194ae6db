// One page ranker's local state (Section 3's "page group" G).
//
// A group owns a subset of the crawl and keeps:
//   * A   — the local open-system matrix over its own pages (inner links),
//   * R   — its current rank vector,
//   * X   — afferent rank, assembled from the latest Y slice received from
//           each other group (refresh = replace that group's slice, NOT
//           accumulate: a slice is a snapshot of the sender's efferent
//           contribution, so a newer one supersedes the older),
//   * efferent blocks — for every destination group, the cut edges into it,
//           from which the outgoing Y slice is computed as
//           Y(v) = Σ α·R(u)/d(u) over cut edges u→v (the paper prints β in
//           formula 3.5; see DESIGN.md "Known typo handled").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/web_graph.hpp"
#include "rank/link_matrix.hpp"
#include "rank/rank_types.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {

/// Sparse efferent-rank message from one group to another. Semantically a
/// *patch*: each entry is the sender's current total contribution to that
/// destination page; entries not present keep their previous value. (A full
/// snapshot is simply a patch containing every entry.)
struct YSlice {
  /// (destination-local page index, rank contribution) pairs, ascending.
  std::vector<std::pair<std::uint32_t, double>> entries;
  /// Number of <url_from, url_to, score> wire records this slice stands
  /// for (= cut edges feeding the included entries) — traffic accounting.
  std::uint64_t record_count = 0;
};

class PageGroup {
 public:
  /// `members`: ascending global PageIds owned by this group; the rank
  /// source is the paper's uniform E = 1. No efferent edges: add them with
  /// add_efferent_edge, then call finalize_efferents.
  PageGroup(const graph::WebGraph& g, std::vector<graph::PageId> members,
            double alpha);

  /// Group `group` of a partition (engine wiring): `members` are the pages
  /// `placement` puts in that group, ascending. Builds the local matrix and
  /// every efferent block from the placement, one lookup per link, and
  /// finalizes the blocks.
  PageGroup(const graph::WebGraph& g, std::vector<graph::PageId> members,
            const rank::PagePlacement& placement, std::uint32_t group,
            double alpha);

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] std::span<const graph::PageId> members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::span<const double> ranks() const noexcept { return ranks_; }
  [[nodiscard]] std::uint64_t outer_steps() const noexcept { return outer_steps_; }

  /// Overwrite the local rank vector (size must match). Used to carry rank
  /// state across a link-graph swap (warm start on a mutated crawl).
  void set_ranks(std::span<const double> ranks);

  /// Wipe all runtime state — R, X, received slices, last-sent snapshots —
  /// as a crash-without-checkpoint does. The structural state (matrix,
  /// efferent blocks) survives; peers re-deliver X on their next sends.
  void reset_state();

  /// Register a cut edge (global u in this group) -> (global v in `dest`);
  /// local index of v within dest is `dest_local`. Called during wiring,
  /// before finalize_efferents. The edge carries u's source weight α/d(u),
  /// read off the matrix. The order of calls is the order in which the
  /// edges' shares are summed among those of one destination page.
  void add_efferent_edge(std::uint32_t dest_group, std::uint32_t dest_local,
                         std::uint32_t src_local);
  /// Sort every block's edges by destination page and pack them into runs,
  /// after all edges are added.
  void finalize_efferents();

  /// Destination groups this group ships Y slices to.
  [[nodiscard]] std::span<const std::uint32_t> efferent_destinations() const noexcept {
    return efferent_dests_;
  }

  /// Apply a received slice: each entry supersedes the stored value from
  /// that (source group, page) pair. This is the "Refresh X" of Algorithms
  /// 3/4 (the engine calls it when a slice is delivered). Keeps
  /// X = Σ_sources latest-per-entry exact for full and delta slices alike.
  /// Ascending entries merge in one pass; out-of-order ones still land, at
  /// the cost of a search each. Throws std::out_of_range, applying nothing,
  /// when the last index is not a page of this group.
  void refresh_x(std::uint32_t source_group, const YSlice& slice);

  /// Frontier state of the worklist kernel every sweep runs (DESIGN.md §6):
  /// tallies of skipped/recomputed rows; for tests and benchmarks.
  [[nodiscard]] const rank::WorklistState& worklist_state() const noexcept {
    return wl_state_;
  }

  /// Portable slice of the worklist frontier: the per-source propagated
  /// contributions and the differ bitmap as of the last completed sweep.
  /// Together with the rank vector this is everything a successor group
  /// (same membership, updated links) needs to resume sparse sweeps without
  /// a dense re-prime (DESIGN.md §14).
  struct WorklistCarry {
    bool valid = false;
    std::vector<double> contrib;
    std::vector<std::uint64_t> differ;
  };

  /// Snapshot the frontier for an incremental graph swap. Returns an
  /// invalid carry when the frontier is not primed on the current buffer
  /// pair (callers then fall back to a dense warm start).
  [[nodiscard]] WorklistCarry export_worklist_carry() const;

  /// Adopt rank state plus a predecessor's frontier after a link-only graph
  /// splice. `changed_sources_local` are local rows whose out-degree (and
  /// hence contribution weight) changed — they get differ bits so the next
  /// sweep re-propagates them; `changed_rows_local` are local rows whose
  /// in-neighborhood changed — they get forcing-dirty bits so they
  /// recompute. Falls back to set_ranks() (dense re-prime) and returns
  /// false when the carry does not fit this group; returns true when the
  /// frontier was installed. Throws std::out_of_range, changing nothing,
  /// when either list holds a row that is not a row of this group. Call
  /// before any X re-priming so refresh_x() can record its own dirty rows.
  bool install_worklist_carry(std::span<const double> ranks, WorklistCarry carry,
                              std::span<const std::uint32_t> changed_rows_local,
                              std::span<const std::uint32_t> changed_sources_local);

  /// Force every row with any received X entry to recompute next sweep.
  /// After an incremental swap the fresh group's afferents are re-primed
  /// from full Y slices; entries that land at bitwise 0.0 produce no
  /// refresh_x() delta yet may still supersede a nonzero pre-swap X, so the
  /// conservative mark keeps the frontier sound (recomputing a consistent
  /// row is bitwise-idempotent).
  void mark_all_received_dirty();

  /// DPR1 body: solve R = A·R + βE + X to `epsilon`, warm-started from the
  /// current R, with the worklist kernel. Returns inner iterations used.
  std::size_t solve_to_convergence(double epsilon, std::size_t max_iterations,
                                   util::ThreadPool& pool);

  /// DPR2 body: exactly one Jacobi sweep of R = A·R + βE + X (worklist
  /// kernel; the sweep's residual is recorded, not recomputed).
  void sweep_once(util::ThreadPool& pool);

  /// L1 norm of (R_new − R_old) of the most recent sweep_once(); 0 before
  /// the first sweep. Lets DPR2 stability detection skip a second pass
  /// (and a snapshot copy) over R.
  [[nodiscard]] double last_sweep_delta() const noexcept { return last_sweep_delta_; }

  /// Compute the outgoing Y slice for one destination group from current R.
  /// With threshold > 0, entries whose value moved less than `threshold`
  /// since the last *committed* send to that group are omitted (delta
  /// sending — the paper's "reduce communication overhead" future work);
  /// never-sent entries are always included.
  [[nodiscard]] YSlice compute_y(std::uint32_t dest_group,
                                 double threshold = 0.0) const;
  /// The same, written into `out` (cleared first), so a caller that keeps
  /// one buffer per destination sends without allocating.
  void compute_y(std::uint32_t dest_group, double threshold, YSlice& out) const;

  /// Record that `slice` reached dest_group, so future thresholded sends
  /// diff against it. Call only once the slice is applied there — after a
  /// lost or refused message the changes stay pending and ride the next
  /// slice. Entries that are not destination pages of the block are
  /// ignored.
  void commit_sent(std::uint32_t dest_group, const YSlice& slice);

  /// Forget every committed send to dest_group, whose X a crash wiped: the
  /// next thresholded slice to it carries every entry again. No-op when
  /// this group has no edges to it.
  void forget_sent(std::uint32_t dest_group);

  /// Count one completed loop step.
  void count_outer_step() noexcept { ++outer_steps_; }

  [[nodiscard]] const rank::LinkMatrix& matrix() const noexcept { return matrix_; }

 private:
  struct EfferentBlock {
    std::uint32_t dest_group = 0;
    // Destination page per cut edge, aligned with src_local while wiring
    // adds edges; finalize_efferents folds it into the runs and frees it.
    std::vector<std::uint32_t> dst_local;
    // Source row per cut edge, one run per destination page: run u is
    // [run_end[u − 1], run_end[u]) (from 0 for u = 0) and feeds unique_dst[u].
    std::vector<std::uint32_t> src_local;
    std::vector<std::uint32_t> run_end;
    // Per distinct destination page, ascending: the page and its last
    // committed value (NaN = never sent).
    std::vector<std::uint32_t> unique_dst;
    std::vector<double> last_sent;
  };

  /// What one source group has sent: every row it has sent a value for,
  /// ascending, and the latest value held for each.
  struct Afferent {
    std::vector<std::uint32_t> rows;
    std::vector<double> held;
  };

  /// Shared tail of both constructors: zero R and X, sweep buffers, block
  /// partials.
  void init_state();
  [[nodiscard]] const EfferentBlock* find_block(std::uint32_t dest_group) const;
  [[nodiscard]] EfferentBlock* find_block(std::uint32_t dest_group);
  [[nodiscard]] Afferent& afferent(std::uint32_t source_group);

  static constexpr std::uint32_t kNoBlock = UINT32_MAX;

  std::vector<graph::PageId> members_;
  rank::LinkMatrix matrix_;
  std::vector<double> ranks_;           // R, local
  std::vector<double> forcing_;         // βE + X, X the sum of latest slices
  std::vector<double> scratch_;         // sweep target
  rank::SweepScratch sweep_scratch_;    // residual partials
  rank::WorklistState wl_state_;        // frontier bitmaps, pinned to ranks_/scratch_
  double last_sweep_delta_ = 0.0;       // L1 residual of the last sweep_once
  std::vector<EfferentBlock> blocks_;   // sorted by dest_group once finalized
  // blocks_ index per destination group (kNoBlock: no cut edges into it).
  std::vector<std::uint32_t> block_of_dest_;
  std::vector<std::uint32_t> efferent_dests_;
  // Latest received values, one Afferent per source heard from — patch
  // semantics — and its afferents_ index per source group (kNoBlock: none).
  std::vector<Afferent> afferents_;
  std::vector<std::uint32_t> afferent_of_source_;
  std::uint64_t outer_steps_ = 0;
  bool finalized_ = false;
};

}  // namespace p2prank::engine
