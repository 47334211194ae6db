#include "rank/link_matrix.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace p2prank::rank {

namespace {

void check_alpha(double alpha) {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument("LinkMatrix: alpha must be in (0, 1)");
  }
}

}  // namespace

void LinkMatrix::finish_layout() {
  const std::size_t dim = dimension();
  out_offsets_.assign(dim + 1, 0);
  block_begin_.assign(1, 0);
  if (dim == 0) {
    sweep_grain_ = 64;
    return;
  }
  // Size grains to ~64KB of hot row data each: 12 bytes per edge (4B source
  // index + 8B contribution gather) plus the 8B y write per row. The grain
  // is a function of the matrix alone — never the pool — which fixes the FP
  // combine order of fused residual partials (determinism contract). Grains
  // are rounded up to a multiple of 64 rows so every grain owns whole words
  // of the worklist bitmaps (64 rows/word): no two grains ever write the
  // same dirty/differ word.
  constexpr std::size_t kGrainBytes = 64 * 1024;
  const std::size_t bytes = num_entries() * 12 + dim * 8;
  const std::size_t per_row = std::max<std::size_t>(1, bytes / dim);
  sweep_grain_ = std::clamp<std::size_t>(kGrainBytes / per_row, 1, dim);
  sweep_grain_ = (sweep_grain_ + 63) / 64 * 64;

  // Blocks: each row longer than kBlockEdges splits into blocks of
  // kBlockEdges edges (the last may be shorter), numbered in row order. Only
  // those rows are listed, so the index costs nothing per row.
  if (dim > kBlockTag) {
    throw std::length_error("LinkMatrix: row ids must fit in 31 bits");
  }
  std::size_t long_rows = 0;
  for (std::size_t v = 0; v < dim; ++v) {
    long_rows += offsets_[v + 1] - offsets_[v] > kBlockEdges ? 1 : 0;
  }
  blocked_rows_.reserve(long_rows);
  block_begin_.reserve(long_rows + 1);
  std::uint64_t blocks = 0;
  for (std::size_t v = 0; v < dim; ++v) {
    const std::uint64_t len = offsets_[v + 1] - offsets_[v];
    if (len <= kBlockEdges) continue;
    blocks += (len + kBlockEdges - 1) / kBlockEdges;
    if (blocks > kBlockTag) {
      throw std::length_error("LinkMatrix: block ids must fit in 31 bits");
    }
    blocked_rows_.push_back(static_cast<std::uint32_t>(v));
    block_begin_.push_back(static_cast<std::uint32_t>(blocks));
  }

  // Push CSR (the transpose: per source, its in-matrix destinations) via a
  // counting sort over the pull edges. Costs 4B/edge + 8B/row of memory and
  // one O(E) pass; the worklist kernel scatters frontier bits through it.
  // An edge into a blocked row names its block instead of the row.
  for (const std::uint32_t u : sources_) ++out_offsets_[u + 1];
  for (std::size_t u = 0; u < dim; ++u) out_offsets_[u + 1] += out_offsets_[u];
  out_targets_.resize(sources_.size());
  std::vector<std::uint64_t> cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  std::size_t long_row = 0;
  for (std::size_t v = 0; v < dim; ++v) {
    const std::uint64_t begin = offsets_[v];
    const std::uint64_t end = offsets_[v + 1];
    if (end - begin <= kBlockEdges) {
      for (std::uint64_t e = begin; e < end; ++e) {
        out_targets_[cursor[sources_[e]]++] = static_cast<std::uint32_t>(v);
      }
      continue;
    }
    const std::uint32_t first = block_begin_[long_row++];
    for (std::uint64_t e = begin; e < end; ++e) {
      out_targets_[cursor[sources_[e]]++] =
          kBlockTag | (first + static_cast<std::uint32_t>((e - begin) / kBlockEdges));
    }
  }
}

std::uint32_t LinkMatrix::target_row(std::uint32_t t) const noexcept {
  if ((t & kBlockTag) == 0) return t;
  const auto after =
      std::upper_bound(block_begin_.begin(), block_begin_.end(), t & ~kBlockTag);
  return blocked_rows_[static_cast<std::size_t>(after - block_begin_.begin()) - 1];
}

LinkMatrix LinkMatrix::from_graph(const graph::WebGraph& g, double alpha) {
  check_alpha(alpha);
  const std::size_t n = g.num_pages();
  LinkMatrix m;
  m.alpha_ = alpha;
  m.offsets_.assign(n + 1, 0);
  // Per-source weight α/d_global(u): the weight of every edge leaving u.
  m.source_weight_.resize(n);
  for (graph::PageId u = 0; u < n; ++u) {
    const auto d = g.out_degree(u);
    m.source_weight_[u] = d > 0 ? alpha / static_cast<double>(d) : 0.0;
  }
  for (graph::PageId v = 0; v < n; ++v) {
    m.offsets_[v + 1] = m.offsets_[v] + g.in_links(v).size();
  }
  m.sources_.resize(m.offsets_[n]);
  std::uint64_t pos = 0;
  for (graph::PageId v = 0; v < n; ++v) {
    for (const graph::PageId u : g.in_links(v)) m.sources_[pos++] = u;
  }
  m.finish_layout();
  return m;
}

LinkMatrix LinkMatrix::from_group(const graph::WebGraph& g,
                                  std::span<const graph::PageId> pages,
                                  const PagePlacement& placement,
                                  std::uint32_t group, double alpha) {
  check_alpha(alpha);
  if (placement.group_of.size() != g.num_pages() ||
      placement.local_of.size() != g.num_pages()) {
    throw std::invalid_argument("LinkMatrix: placement must cover every page");
  }
  const std::uint32_t* const group_of = placement.group_of.data();
  const std::uint32_t* const local_of = placement.local_of.data();

  LinkMatrix m;
  m.alpha_ = alpha;
  m.offsets_.assign(pages.size() + 1, 0);
  m.source_weight_.resize(pages.size());
  for (std::uint32_t i = 0; i < pages.size(); ++i) {
    assert(group_of[pages[i]] == group && local_of[pages[i]] == i);
    const auto d = g.out_degree(pages[i]);
    m.source_weight_[i] = d > 0 ? alpha / static_cast<double>(d) : 0.0;
    std::uint64_t count = 0;
    for (const graph::PageId u : g.in_links(pages[i])) {
      count += group_of[u] == group ? 1 : 0;
    }
    m.offsets_[i + 1] = m.offsets_[i] + count;
  }
  m.sources_.resize(m.offsets_.back());
  std::uint32_t* out = m.sources_.data();
  for (const graph::PageId v : pages) {
    for (const graph::PageId u : g.in_links(v)) {
      if (group_of[u] == group) *out++ = local_of[u];
    }
  }
  assert(out == m.sources_.data() + m.sources_.size());
  m.finish_layout();
  return m;
}

LinkMatrix LinkMatrix::from_subset(const graph::WebGraph& g,
                                   std::span<const graph::PageId> pages,
                                   double alpha) {
  assert(std::is_sorted(pages.begin(), pages.end()));
  if (!pages.empty() && pages.back() >= g.num_pages()) {
    throw std::out_of_range("LinkMatrix: subset page outside the crawl");
  }
  std::vector<std::uint32_t> group_of(g.num_pages(), 1);
  std::vector<std::uint32_t> local_of(g.num_pages(), 0);
  for (std::uint32_t i = 0; i < pages.size(); ++i) {
    group_of[pages[i]] = 0;
    local_of[pages[i]] = i;
  }
  return from_group(g, pages, {group_of, local_of}, 0, alpha);
}

namespace {

constexpr std::uint64_t kBlock = LinkMatrix::kBlockEdges;

// Every kernel sums a block of edges with this exact two-lane pattern (even
// edges into lane 0, odd into lane 1, lanes combined once at the end). Two
// in-flight adds hide the FP-add latency that a single serial chain exposes
// on short rows. The sum starts from +0.0, so it is never −0.0, and adding
// it to 0.0 keeps its bits: a one-block row needs no outer add.
inline double block_sum(const double* contrib, const std::uint32_t* sources,
                        std::uint64_t begin, std::uint64_t end) noexcept {
  double acc0 = 0.0;
  double acc1 = 0.0;
  std::uint64_t e = begin;
  for (; e + 1 < end; e += 2) {
    acc0 += contrib[sources[e]];
    acc1 += contrib[sources[e + 1]];
  }
  if (e < end) acc0 += contrib[sources[e]];
  return acc0 + acc1;
}

// A row's value: its blocks' sums added in block order from 0.0. Sharing
// this rule is what makes the dense and worklist kernels bitwise-identical.
inline double row_sum(const double* contrib, const std::uint32_t* sources,
                      std::uint64_t begin, std::uint64_t end) noexcept {
  if (end - begin <= kBlock) return block_sum(contrib, sources, begin, end);
  double acc = 0.0;
  for (std::uint64_t e = begin; e < end; e += kBlock) {
    acc += block_sum(contrib, sources, e, std::min(e + kBlock, end));
  }
  return acc;
}

}  // namespace

void LinkMatrix::fit_frontier(WorklistState& state) const {
  const std::size_t words = (dimension() + 63) / 64;
  state.contrib.assign(dimension(), 0.0);
  state.differ.assign(words, 0);
  state.dirty.assign(words, 0);
  state.src_active.assign(words, 0);
  state.forcing_dirty.assign(words, 0);
  state.active_grains.clear();
  state.grain_edges.assign(util::ThreadPool::num_grains(dimension(), sweep_grain_), 0);
  state.partial.assign(num_blocks(), 0.0);
  state.block_dirty.assign((num_blocks() + 63) / 64, 0);
  state.reset();
}

void LinkMatrix::refresh_block_partials(WorklistState& state) const {
  assert(state.contrib.size() == dimension());
  assert(state.partial.size() == num_blocks());
  const double* const contrib = state.contrib.data();
  for (std::size_t i = 0; i < blocked_rows_.size(); ++i) {
    const std::uint64_t end = offsets_[blocked_rows_[i] + 1];
    std::size_t blk = block_begin_[i];
    for (std::uint64_t e = offsets_[blocked_rows_[i]]; e < end; e += kBlock) {
      state.partial[blk++] =
          block_sum(contrib, sources_.data(), e, std::min(e + kBlock, end));
    }
  }
}

SweepStats LinkMatrix::sweep_and_residual(std::span<const double> in,
                                          std::span<double> out,
                                          std::span<const double> forcing,
                                          SweepScratch& scratch,
                                          util::ThreadPool& pool) const {
  const std::size_t dim = dimension();
  assert(in.size() == dim && out.size() == dim);
  assert(forcing.empty() || forcing.size() == dim);
  scratch.contrib.resize(dim);
  const std::size_t total = util::ThreadPool::num_grains(dim, sweep_grain_);
  scratch.partial_l1.assign(total, 0.0);
  scratch.partial_linf.assign(total, 0.0);

  double* const contrib = scratch.contrib.data();
  const double* const sw = source_weight_.data();
  // Every contribution is formed before any row is written, so a row never
  // reads another row's new value and `out` may be `in`.
  pool.parallel_for(dim, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) contrib[u] = in[u] * sw[u];
  });

  const std::uint32_t* const sources = sources_.data();
  const double* const force = forcing.empty() ? nullptr : forcing.data();
  pool.parallel_for_grains(
      dim, sweep_grain_,
      [&](std::size_t grain, std::size_t begin, std::size_t end) {
        double l1 = 0.0;
        double linf = 0.0;
        for (std::size_t v = begin; v < end; ++v) {
          double acc = row_sum(contrib, sources, offsets_[v], offsets_[v + 1]);
          if (force != nullptr) acc += force[v];
          const double diff = std::fabs(acc - in[v]);
          l1 += diff;
          if (diff > linf) linf = diff;
          out[v] = acc;
        }
        scratch.partial_l1[grain] = l1;
        scratch.partial_linf[grain] = linf;
      });

  SweepStats stats;
  for (std::size_t g = 0; g < total; ++g) {
    stats.l1_delta += scratch.partial_l1[g];
    stats.linf_delta = std::max(stats.linf_delta, scratch.partial_linf[g]);
  }
  return stats;
}

namespace {

inline std::uint64_t bits_of(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}

/// Whether any bit of [begin, end) is set (begin < end).
inline bool any_bit(const std::uint64_t* bits, std::size_t begin, std::size_t end) noexcept {
  const std::size_t last = (end - 1) >> 6;
  for (std::size_t w = begin >> 6; w <= last; ++w) {
    std::uint64_t word = bits[w];
    if (w == begin >> 6) word &= ~std::uint64_t{0} << (begin & 63);
    if (w == last) word &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    if (word != 0) return true;
  }
  return false;
}

}  // namespace

SweepStats LinkMatrix::sweep_and_residual_worklist(std::span<double> ranks,
                                                   std::span<const double> forcing,
                                                   SweepScratch& scratch,
                                                   WorklistState& state,
                                                   util::ThreadPool& pool) const {
  const std::size_t dim = dimension();
  assert(ranks.size() == dim);
  assert(forcing.empty() || forcing.size() == dim);
  SweepStats stats;
  if (dim == 0) return stats;

  const std::size_t words = (dim + 63) / 64;
  const std::size_t total = util::ThreadPool::num_grains(dim, sweep_grain_);
  scratch.partial_l1.assign(total, 0.0);
  scratch.partial_linf.assign(total, 0.0);

  if (state.contrib.size() != dim || state.grain_edges.size() != total ||
      state.partial.size() != num_blocks()) {
    fit_frontier(state);
  }
  // The differ bitmap is a statement about one rank vector; another vector
  // (a fresh solve, a reallocated buffer) forces a dense sweep.
  if (state.bound != ranks.data()) {
    state.primed = false;
    state.bound = ranks.data();
  }

  const double* const sw = source_weight_.data();
  const std::uint32_t* const sources = sources_.data();
  const double* const force = forcing.empty() ? nullptr : forcing.data();
  double* const contrib = state.contrib.data();
  std::uint64_t* const differ = state.differ.data();
  std::uint64_t* const dirty = state.dirty.data();
  std::uint64_t* const src_active = state.src_active.data();
  const std::uint64_t* const out_off = out_offsets_.data();
  double* const partial = state.partial.data();
  std::uint64_t* const block_dirty = state.block_dirty.data();
  // Row v's sum by the block rule. A blocked row first re-gathers each of
  // its blocks that `stale` names into the block's partial, then adds all
  // its partials in block order.
  const auto row_value = [&](std::size_t v, auto&& stale) {
    const std::uint64_t row_begin = offsets_[v];
    const std::uint64_t row_end = offsets_[v + 1];
    if (row_end - row_begin <= kBlock) {
      return block_sum(contrib, sources, row_begin, row_end);
    }
    std::size_t blk = block_begin_[static_cast<std::size_t>(
        std::lower_bound(blocked_rows_.begin(), blocked_rows_.end(), v) -
        blocked_rows_.begin())];
    double acc = 0.0;
    for (std::uint64_t e = row_begin; e < row_end; e += kBlock, ++blk) {
      if (stale(blk)) {
        partial[blk] = block_sum(contrib, sources, e, std::min(e + kBlock, row_end));
      }
      acc += partial[blk];
    }
    return acc;
  };
  const auto block_is_dirty = [&](std::size_t blk) {
    return ((block_dirty[blk >> 6] >> (blk & 63)) & 1) != 0;
  };
  const auto every_block = [](std::size_t) { return true; };

  bool dense = !state.primed;

  // A contracted frontier costs less to sweep than a fork-join wake-up, so
  // when the actual work (rows or edges, per the caller's hint) is below
  // the pool's inline cutoff, run the grain list serially in list order —
  // the same order as the pool's own inline path, hence bitwise-identical
  // results either way.
  const auto for_grains_subset = [&](std::uint64_t work_hint, auto&& fn) {
    if (work_hint <= util::ThreadPool::kInlineCutoff) {
      for (const std::uint32_t g : state.active_grains) {
        const std::size_t begin = g * sweep_grain_;
        fn(g, begin, std::min(dim, begin + sweep_grain_));
      }
      return;
    }
    pool.parallel_for_grains_subset(state.active_grains, dim, sweep_grain_, fn);
  };

  if (!dense) {
    // Phase A (frontier pull side): exactly the rows whose value changed
    // last sweep — the differ bits — can have a new contribution. Refresh
    // those lazily and tally which ones moved, clearing each differ word as
    // it is read: the sweep below sets the bits of the rows it moves. Grains
    // are 64-aligned, so each active grain owns whole bitmap words.
    std::fill(state.dirty.begin(), state.dirty.end(), 0);
    std::fill(state.block_dirty.begin(), state.block_dirty.end(), 0);
    std::fill(state.src_active.begin(), state.src_active.end(), 0);
    std::fill(state.grain_edges.begin(), state.grain_edges.end(), 0);
    state.active_grains.clear();
    std::uint64_t differ_rows = 0;
    for (std::size_t g = 0; g < total; ++g) {
      const std::size_t w_begin = g * sweep_grain_ / 64;
      const std::size_t w_end =
          std::min(words, (std::min(dim, (g + 1) * sweep_grain_) + 63) / 64);
      std::uint64_t rows = 0;
      for (std::size_t w = w_begin; w < w_end; ++w) {
        rows += static_cast<std::uint64_t>(std::popcount(differ[w]));
      }
      if (rows != 0) {
        state.active_grains.push_back(static_cast<std::uint32_t>(g));
        differ_rows += rows;
      }
    }
    for_grains_subset(
        differ_rows,
        [&](std::size_t g, std::size_t begin, std::size_t end) {
          std::uint64_t edges = 0;
          const std::size_t w_begin = begin / 64;
          const std::size_t w_end = (end + 63) / 64;
          for (std::size_t w = w_begin; w < w_end; ++w) {
            std::uint64_t bits = differ[w];
            differ[w] = 0;
            std::uint64_t active = 0;
            while (bits != 0) {
              const int b = std::countr_zero(bits);
              bits &= bits - 1;
              const std::size_t u = w * 64 + static_cast<std::size_t>(b);
              const double c = ranks[u] * sw[u];
              // A source propagates when its contribution changed bitwise.
              if (bits_of(c) != bits_of(contrib[u])) {
                contrib[u] = c;
                active |= std::uint64_t{1} << b;
                edges += out_off[u + 1] - out_off[u];
              }
            }
            src_active[w] = active;
          }
          state.grain_edges[g] = edges;
        });

    // Push–pull switch (beedrill hybrid_bfs idiom): integer tallies combined
    // in grain order, so the decision is pool-independent. Scatter only while
    // the active sources' out-edges are below kPushDensity of all edges;
    // above it the scatter is pointless — fall back to the dense pull sweep.
    constexpr double kPushDensity = 0.125;
    std::uint64_t active_edges = 0;
    for (const std::uint32_t g : state.active_grains) {
      active_edges += state.grain_edges[g];
    }
    if (static_cast<double>(active_edges) >
        kPushDensity * static_cast<double>(num_entries())) {
      dense = true;
    } else {
      // Push phase: scatter dirty bits along out-edges of active sources —
      // to the row, or to the block when the edge lands in a blocked row.
      // fetch_or is idempotent, so racing scatters commute and the final
      // bitmaps — all later phases' inputs — are deterministic. Blocks of
      // rows in two grains can share a block_dirty word, so it is cleared
      // only serially, at the start of the next sparse sweep.
      for_grains_subset(
          active_edges,
          [&](std::size_t /*g*/, std::size_t begin, std::size_t end) {
            const std::size_t w_begin = begin / 64;
            const std::size_t w_end = (end + 63) / 64;
            for (std::size_t w = w_begin; w < w_end; ++w) {
              std::uint64_t bits = src_active[w];
              while (bits != 0) {
                const int b = std::countr_zero(bits);
                bits &= bits - 1;
                const std::size_t u = w * 64 + static_cast<std::size_t>(b);
                for (std::uint64_t e = out_off[u]; e < out_off[u + 1]; ++e) {
                  const std::uint32_t t = out_targets_[e] & ~kBlockTag;
                  std::uint64_t* const bitmap =
                      (out_targets_[e] & kBlockTag) != 0 ? block_dirty : dirty;
                  std::atomic_ref<std::uint64_t> word(bitmap[t >> 6]);
                  word.fetch_or(std::uint64_t{1} << (t & 63),
                                std::memory_order_relaxed);
                }
              }
            }
          });
      // A blocked row is dirty when any of its blocks is.
      for (std::size_t i = 0; i < blocked_rows_.size(); ++i) {
        if (any_bit(block_dirty, block_begin_[i], block_begin_[i + 1])) {
          const std::uint32_t v = blocked_rows_[i];
          dirty[v >> 6] |= std::uint64_t{1} << (v & 63);
        }
      }
    }
  }

  if (!dense) {
    // Rows whose forcing changed must recompute even with a quiet frontier.
    std::uint64_t computed = 0;
    for (std::size_t w = 0; w < words; ++w) {
      dirty[w] |= state.forcing_dirty[w];
      computed += static_cast<std::uint64_t>(std::popcount(dirty[w]));
    }
    state.active_grains.clear();
    for (std::size_t g = 0; g < total; ++g) {
      const std::size_t w_begin = g * sweep_grain_ / 64;
      const std::size_t w_end =
          std::min(words, (std::min(dim, (g + 1) * sweep_grain_) + 63) / 64);
      if (std::any_of(dirty + w_begin, dirty + w_end,
                      [](std::uint64_t word) { return word != 0; })) {
        state.active_grains.push_back(static_cast<std::uint32_t>(g));
      }
    }

    // Sparse sweep: recompute dirty rows and skip the rest (each already
    // holds bitwise what a recompute would write — see DESIGN.md §6 for the
    // induction). A row's old value is read before it is overwritten: the
    // residual and the row's differ bit compare against it. A blocked row
    // re-gathers only its dirty blocks; every other block's partial already
    // sums the contributions it would gather. Skipped rows have an
    // exactly-zero residual, and residual partials of untouched grains stay
    // +0.0, so the grain-order combine is bitwise the dense one.
    for_grains_subset(
        computed,
        [&](std::size_t g, std::size_t begin, std::size_t end) {
          double l1 = 0.0;
          double linf = 0.0;
          const std::size_t w_begin = begin / 64;
          const std::size_t w_end = (end + 63) / 64;
          for (std::size_t w = w_begin; w < w_end; ++w) {
            std::uint64_t changed = 0;
            std::uint64_t bits = dirty[w];
            while (bits != 0) {
              const int b = std::countr_zero(bits);
              bits &= bits - 1;
              const std::size_t v = w * 64 + static_cast<std::size_t>(b);
              double acc = row_value(v, block_is_dirty);
              if (force != nullptr) acc += force[v];
              const double old = ranks[v];
              const double diff = std::fabs(acc - old);
              l1 += diff;
              if (diff > linf) linf = diff;
              ranks[v] = acc;
              if (bits_of(acc) != bits_of(old)) {
                changed |= std::uint64_t{1} << b;
              }
            }
            differ[w] = changed;
          }
          scratch.partial_l1[g] = l1;
          scratch.partial_linf[g] = linf;
        });

    state.rows_computed += computed;
  } else {
    // Dense sweep: bitwise-identical row loop to sweep_and_residual, plus
    // refreshing every contribution and block partial and rebuilding the
    // differ bitmap.
    pool.parallel_for(dim, [&](std::size_t begin, std::size_t end) {
      for (std::size_t u = begin; u < end; ++u) contrib[u] = ranks[u] * sw[u];
    });
    pool.parallel_for_grains(
        dim, sweep_grain_,
        [&](std::size_t grain, std::size_t begin, std::size_t end) {
          double l1 = 0.0;
          double linf = 0.0;
          std::uint64_t changed = 0;
          for (std::size_t v = begin; v < end; ++v) {
            double acc = row_value(v, every_block);
            if (force != nullptr) acc += force[v];
            const double old = ranks[v];
            const double diff = std::fabs(acc - old);
            l1 += diff;
            if (diff > linf) linf = diff;
            ranks[v] = acc;
            if (bits_of(acc) != bits_of(old)) {
              changed |= std::uint64_t{1} << (v & 63);
            }
            if ((v & 63) == 63 || v + 1 == end) {
              differ[v >> 6] = changed;
              changed = 0;
            }
          }
          scratch.partial_l1[grain] = l1;
          scratch.partial_linf[grain] = linf;
        });
    state.rows_computed += dim;
    ++state.dense_sweeps;
    state.primed = true;
  }

  ++state.sweeps;
  std::fill(state.forcing_dirty.begin(), state.forcing_dirty.end(), 0);
  for (std::size_t g = 0; g < total; ++g) {
    stats.l1_delta += scratch.partial_l1[g];
    stats.linf_delta = std::max(stats.linf_delta, scratch.partial_linf[g]);
  }
  return stats;
}

double LinkMatrix::contraction_norm() const noexcept {
  std::vector<double> out_weight(dimension(), 0.0);
  for (const std::uint32_t u : sources_) out_weight[u] += source_weight_[u];
  double max_w = 0.0;
  for (const double w : out_weight) max_w = std::max(max_w, w);
  return max_w;
}

}  // namespace p2prank::rank
