#include "engine/page_group.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "rank/open_system.hpp"

namespace p2prank::engine {

PageGroup::PageGroup(const graph::WebGraph& g, std::vector<graph::PageId> members,
                     double alpha)
    : members_(std::move(members)),
      matrix_(rank::LinkMatrix::from_subset(g, members_, alpha)) {
  init_state();
}

PageGroup::PageGroup(const graph::WebGraph& g, std::vector<graph::PageId> members,
                     const rank::PagePlacement& placement, std::uint32_t group,
                     double alpha)
    : members_(std::move(members)),
      matrix_(rank::LinkMatrix::from_group(g, members_, placement, group, alpha)) {
  init_state();
  // Cut edges go in source-major order: members ascending, each one's
  // out-links in CSR order. The order finalize_efferents' std::sort leaves
  // among edges into one page depends on this input order, and it is
  // compute_y's summation order: changing either changes Y bits.
  for (std::uint32_t i = 0; i < members_.size(); ++i) {
    for (const graph::PageId v : g.out_links(members_[i])) {
      const std::uint32_t dest = placement.group_of[v];
      if (dest != group) add_efferent_edge(dest, placement.local_of[v], i);
    }
  }
  finalize_efferents();
}

void PageGroup::init_state() {
  assert(std::is_sorted(members_.begin(), members_.end()));
  ranks_.assign(members_.size(), 0.0);  // R0 = 0 (the proofs' S = 0)
  forcing_.assign(members_.size(), rank::beta_of(matrix_.alpha()));  // X = 0
  scratch_.assign(members_.size(), 0.0);
  matrix_.fit_block_partials(wl_state_);
}

void PageGroup::set_ranks(std::span<const double> ranks) {
  if (ranks.size() != ranks_.size()) {
    throw std::invalid_argument("PageGroup::set_ranks: size mismatch");
  }
  ranks_.assign(ranks.begin(), ranks.end());
  // R changed out of band (warm start / checkpoint restore): every frontier
  // assumption is stale, so the next sweep must run dense.
  wl_state_.reset();
}

void PageGroup::reset_state() {
  std::fill(ranks_.begin(), ranks_.end(), 0.0);
  std::fill(forcing_.begin(), forcing_.end(), rank::beta_of(matrix_.alpha()));
  last_sweep_delta_ = 0.0;
  wl_state_.reset();
  for (auto& aff : afferents_) {
    aff.rows.clear();
    aff.held.clear();
  }
  for (auto& block : blocks_) {
    std::fill(block.last_sent.begin(), block.last_sent.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
}

void PageGroup::add_efferent_edge(std::uint32_t dest_group, std::uint32_t dest_local,
                                  std::uint32_t src_local) {
  assert(!finalized_);
  assert(src_local < members_.size());
  if (dest_group >= block_of_dest_.size()) {
    block_of_dest_.resize(std::size_t{dest_group} + 1, kNoBlock);
  }
  std::uint32_t& slot = block_of_dest_[dest_group];
  if (slot == kNoBlock) {
    slot = static_cast<std::uint32_t>(blocks_.size());
    blocks_.emplace_back().dest_group = dest_group;
  }
  EfferentBlock& block = blocks_[slot];
  block.dst_local.push_back(dest_local);
  block.src_local.push_back(src_local);
}

void PageGroup::finalize_efferents() {
  assert(!finalized_);
  std::sort(blocks_.begin(), blocks_.end(),
            [](const EfferentBlock& a, const EfferentBlock& b) {
              return a.dest_group < b.dest_group;
            });
  std::vector<std::uint32_t> order;
  for (std::uint32_t bi = 0; bi < blocks_.size(); ++bi) {
    EfferentBlock& block = blocks_[bi];
    block_of_dest_[block.dest_group] = bi;
    // Sort edges by destination page, then pack each page's edges into one
    // run of source rows.
    order.resize(block.dst_local.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return block.dst_local[a] < block.dst_local[b];
    });
    std::vector<std::uint32_t> src_sorted(order.size());
    for (std::uint32_t e = 0; e < order.size(); ++e) {
      const std::uint32_t dst = block.dst_local[order[e]];
      if (block.unique_dst.empty() || block.unique_dst.back() != dst) {
        if (e > 0) block.run_end.push_back(e);
        block.unique_dst.push_back(dst);
      }
      src_sorted[e] = block.src_local[order[e]];
    }
    if (!order.empty()) block.run_end.push_back(static_cast<std::uint32_t>(order.size()));
    block.src_local = std::move(src_sorted);
    std::vector<std::uint32_t>().swap(block.dst_local);
    block.last_sent.assign(block.unique_dst.size(),
                           std::numeric_limits<double>::quiet_NaN());
  }
  efferent_dests_.clear();
  efferent_dests_.reserve(blocks_.size());
  for (const auto& b : blocks_) efferent_dests_.push_back(b.dest_group);
  finalized_ = true;
}

const PageGroup::EfferentBlock* PageGroup::find_block(std::uint32_t dest_group) const {
  if (dest_group >= block_of_dest_.size() || block_of_dest_[dest_group] == kNoBlock) {
    return nullptr;
  }
  return &blocks_[block_of_dest_[dest_group]];
}

PageGroup::EfferentBlock* PageGroup::find_block(std::uint32_t dest_group) {
  return const_cast<EfferentBlock*>(
      static_cast<const PageGroup*>(this)->find_block(dest_group));
}

PageGroup::Afferent& PageGroup::afferent(std::uint32_t source_group) {
  if (source_group >= afferent_of_source_.size()) {
    afferent_of_source_.resize(std::size_t{source_group} + 1, kNoBlock);
  }
  std::uint32_t& slot = afferent_of_source_[source_group];
  if (slot == kNoBlock) {
    slot = static_cast<std::uint32_t>(afferents_.size());
    afferents_.emplace_back();
  }
  return afferents_[slot];
}

void PageGroup::refresh_x(std::uint32_t source_group, const YSlice& slice) {
  // X(v) = Σ over (source group, page) of the latest received contribution.
  // Maintain the dense sum incrementally: each incoming entry supersedes
  // the value held for its (source, page) pair.
  if (!slice.entries.empty() && slice.entries.back().first >= size()) {
    throw std::out_of_range("PageGroup::refresh_x: slice index past the group");
  }
  Afferent& aff = afferent(source_group);
  auto& rows = aff.rows;
  // Merge cursor: rows[0, pos) lie below the next ascending entry.
  std::size_t pos = 0;
  for (const auto& [local, value] : slice.entries) {
    // An entry out of order (only a direct caller sends one) restarts the
    // search from the front; in order, the cursor's row is usually it.
    if (pos > 0 && rows[pos - 1] >= local) pos = 0;
    if (pos < rows.size() && rows[pos] < local) {
      pos = static_cast<std::size_t>(
          std::lower_bound(rows.begin() + static_cast<std::ptrdiff_t>(pos), rows.end(),
                           local) -
          rows.begin());
    }
    if (pos == rows.size() || rows[pos] != local) {  // first value from this pair
      rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(pos), local);
      aff.held.insert(aff.held.begin() + static_cast<std::ptrdiff_t>(pos), 0.0);
    }
    double& held = aff.held[pos++];
    const double delta = value - held;
    // A delta of exactly 0 leaves forcing_ (≥ β > 0) bitwise unchanged and
    // cannot change the row's next value, so only real changes land and
    // wake the row.
    if (delta == 0.0) continue;
    forcing_[local] += delta;
    held = value;
    wl_state_.mark_forcing_dirty(local);
  }
}

PageGroup::WorklistCarry PageGroup::export_worklist_carry() const {
  WorklistCarry carry;
  if (!wl_state_.primed) return carry;
  // The differ bitmap is a statement about this exact buffer pair; if the
  // state talks about some other pair the frontier is not exportable.
  const bool pair_ok =
      (wl_state_.pair_a == ranks_.data() && wl_state_.pair_b == scratch_.data()) ||
      (wl_state_.pair_a == scratch_.data() && wl_state_.pair_b == ranks_.data());
  if (!pair_ok) return carry;
  carry.valid = true;
  carry.contrib = wl_state_.contrib;
  carry.differ = wl_state_.differ;
  return carry;
}

bool PageGroup::install_worklist_carry(
    std::span<const double> ranks, WorklistCarry carry,
    std::span<const std::uint32_t> changed_rows_local,
    std::span<const std::uint32_t> changed_sources_local) {
  const std::size_t dim = members_.size();
  // The bitmaps' last word has room past dim: a row there would wake a row
  // that does not exist, and one past the last word would write past them.
  const auto past_group = [dim](std::uint32_t row) { return row >= dim; };
  if (std::any_of(changed_rows_local.begin(), changed_rows_local.end(), past_group) ||
      std::any_of(changed_sources_local.begin(), changed_sources_local.end(),
                  past_group)) {
    throw std::out_of_range("PageGroup::install_worklist_carry: row past the group");
  }
  const std::size_t words = (dim + 63) / 64;
  if (!carry.valid || carry.contrib.size() != dim || carry.differ.size() != words) {
    set_ranks(ranks);
    return false;
  }
  ranks_.assign(ranks.begin(), ranks.end());
  scratch_.assign(ranks.begin(), ranks.end());
  wl_state_.contrib = std::move(carry.contrib);
  wl_state_.differ = std::move(carry.differ);
  // Pre-size every derived bitmap exactly as the kernel's own prime does,
  // so the next sweep's sizing check keeps the installed frontier.
  wl_state_.dirty.assign(words, 0);
  wl_state_.src_active.assign(words, 0);
  wl_state_.forcing_dirty.assign(words, 0);
  wl_state_.grain_edges.assign(
      util::ThreadPool::num_grains(dim, matrix_.sweep_grain()), 0);
  wl_state_.active_grains.clear();
  // The carried contributions summed over this matrix's blocks: a block's
  // partial must be what a re-gather would give, as after a dense sweep.
  matrix_.refresh_block_partials(wl_state_);
  wl_state_.primed = true;
  wl_state_.pair_a = ranks_.data();
  wl_state_.pair_b = scratch_.data();
  // Sources whose 1/d(u) weight changed: their propagated contribution is
  // stale, so the next sweep's rescan phase must revisit them.
  for (const std::uint32_t row : changed_sources_local) {
    wl_state_.differ[row >> 6] |= std::uint64_t{1} << (row & 63);
  }
  // Rows whose in-neighborhood changed recompute against the new matrix.
  for (const std::uint32_t row : changed_rows_local) {
    wl_state_.mark_forcing_dirty(row);
  }
  return true;
}

void PageGroup::mark_all_received_dirty() {
  for (const Afferent& aff : afferents_) {
    for (const std::uint32_t local : aff.rows) wl_state_.mark_forcing_dirty(local);
  }
}

std::size_t PageGroup::solve_to_convergence(double epsilon,
                                            std::size_t max_iterations,
                                            util::ThreadPool& pool) {
  // Iterate in place on the persistent ranks_/scratch_ pair: no per-step
  // allocation, and the frontier survives across outer steps, so after the
  // first solve later solves only touch rows reached from refreshed forcing
  // entries.
  rank::SolveOptions opts;
  opts.epsilon = epsilon;
  opts.max_iterations = max_iterations;
  return rank::iterate_open_system(matrix_, forcing_, ranks_, scratch_, opts,
                                   sweep_scratch_, pool, &wl_state_)
      .iterations;
}

void PageGroup::sweep_once(util::ThreadPool& pool) {
  last_sweep_delta_ = matrix_
                          .sweep_and_residual_worklist(ranks_, scratch_, forcing_,
                                                       sweep_scratch_, wl_state_, pool)
                          .l1_delta;
  std::swap(ranks_, scratch_);
}

YSlice PageGroup::compute_y(std::uint32_t dest_group, double threshold) const {
  YSlice slice;
  compute_y(dest_group, threshold, slice);
  return slice;
}

void PageGroup::compute_y(std::uint32_t dest_group, double threshold,
                          YSlice& out) const {
  const EfferentBlock* block = find_block(dest_group);
  if (block == nullptr) {
    throw std::invalid_argument("PageGroup::compute_y: no edges to that group");
  }
  out.entries.clear();
  out.record_count = 0;
  out.entries.reserve(block->unique_dst.size());
  // Every edge leaving source s carries s's weight α/d(s), so each run sums
  // R(s)·α/d(s) over its sources, in the order finalize_efferents left them.
  const double* const weight = matrix_.source_weights().data();
  std::uint32_t begin = 0;
  for (std::size_t u = 0; u < block->unique_dst.size(); ++u) {
    const std::uint32_t end = block->run_end[u];
    double acc = 0.0;
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t s = block->src_local[e];
      acc += ranks_[s] * weight[s];
    }
    const double last = block->last_sent[u];
    // Include when never sent, or moved at least `threshold` since the last
    // committed send.
    if (threshold <= 0.0 || std::isnan(last) || std::fabs(acc - last) >= threshold) {
      out.entries.emplace_back(block->unique_dst[u], acc);
      out.record_count += end - begin;
    }
    begin = end;
  }
}

void PageGroup::commit_sent(std::uint32_t dest_group, const YSlice& slice) {
  EfferentBlock* block = find_block(dest_group);
  if (block == nullptr) {
    throw std::invalid_argument("PageGroup::commit_sent: no edges to that group");
  }
  // Both unique_dst and slice entries are ascending: merge. The slice is
  // the one the receiver applied, so an entry that is no destination page
  // of the block (a frame corrupted past its checksum) commits nothing.
  std::size_t u = 0;
  for (const auto& [dst, value] : slice.entries) {
    while (u < block->unique_dst.size() && block->unique_dst[u] < dst) ++u;
    if (u == block->unique_dst.size()) break;
    if (block->unique_dst[u] == dst) block->last_sent[u] = value;
  }
}

void PageGroup::forget_sent(std::uint32_t dest_group) {
  if (EfferentBlock* block = find_block(dest_group)) {
    std::fill(block->last_sent.begin(), block->last_sent.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
}

}  // namespace p2prank::engine
