#include "serve/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"

namespace p2prank::serve {

// ---------------------------------------------------------------------------
// RankSnapshot

void RankSnapshot::build_groups(std::uint64_t epoch, double time,
                                std::span<const engine::GroupCut> groups,
                                std::uint32_t num_pages,
                                std::uint64_t ownership_version,
                                std::size_t capacity) {
  const auto num_shards = static_cast<std::uint32_t>(groups.size());
  epoch_ = epoch;
  time_ = time;
  num_shards_ = num_shards;
  capacity_ = capacity;

  // The page → shard map only changes when group membership does. When this
  // buffer was last built under the same nonzero ownership version, its
  // shard_of_ is already exact — skip the dense rewrite (and its RFO
  // traffic), the biggest avoidable cost on the publish path.
  const bool shard_map_current = ownership_version != 0 &&
                                 ownership_version_ == ownership_version &&
                                 shard_of_.size() == num_pages;
  ownership_version_ = ownership_version;

  std::size_t covered = 0;
  for (const engine::GroupCut& gc : groups) covered += gc.members.size();
  if (covered == num_pages) {
    // Groups partition the page set: the merge below overwrites every slot,
    // no pre-fill needed.
    ranks_.resize(num_pages);
    if (!shard_map_current) shard_of_.resize(num_pages);
  } else {
    // Post-crash orphans own no group; they read as unowned with rank 0.
    ranks_.assign(num_pages, 0.0);
    if (!shard_map_current) shard_of_.assign(num_pages, UINT32_MAX);
  }

  shards_.resize(num_shards);
  for (std::uint32_t sh = 0; sh < num_shards; ++sh) {
    ShardIndex& s = shards_[sh];
    s.epoch = epoch;
    s.pages = groups[sh].members.size();
    s.top.clear();  // keeps capacity — the buffer-reuse path allocates nothing
  }
  admit_scratch_.assign(
      num_shards, capacity == 0 ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity());
  cursor_scratch_.assign(num_shards, 0);

  // Blocked k-way merge of the groups' ascending member lists: the dense
  // writes land inside one cache-resident window at a time instead of
  // striding the whole vector once per group, and the per-shard top-K
  // admission rides the same pass. Once a shard's heap is full, a page must
  // beat the worst retained rank to change the index; each shard's pages
  // arrive in ascending id order, so a rank tie always loses to the earlier
  // page and `rank <= admit` is an exact reject. The whole publish reads
  // and writes each byte exactly once. Each
  // (group, block) slice end is found by binary search up front so the hot
  // loop carries a single trip count instead of a per-element bounds test.
  double* const dst_ranks = ranks_.data();
  std::uint32_t* const dst_shard = shard_of_.data();
  constexpr std::uint32_t kBlock = 8192;
  for (std::uint32_t lo = 0; lo < num_pages; lo += kBlock) {
    const std::uint32_t hi =
        lo + std::min<std::uint32_t>(kBlock, num_pages - lo);
    for (std::uint32_t sh = 0; sh < num_shards; ++sh) {
      const engine::GroupCut& gc = groups[sh];
      ShardIndex& s = shards_[sh];
      const std::uint32_t* const mem = gc.members.data();
      const double* const rnk = gc.ranks.data();
      const std::size_t cur = cursor_scratch_[sh];
      const std::size_t stop = static_cast<std::size_t>(
          std::lower_bound(mem + cur, mem + gc.members.size(), hi) - mem);
      double admit = admit_scratch_[sh];
      if (shard_map_current) {
        for (std::size_t i = cur; i < stop; ++i) {
          const std::uint32_t page = mem[i];
          const double rank = rnk[i];
          dst_ranks[page] = rank;
          if (rank <= admit) continue;  // exact: ascending pages lose ties
          topk_offer(s.top, capacity_, TopKEntry{page, rank});
          if (s.top.size() == capacity_) admit = s.top.front().rank;
        }
      } else {
        for (std::size_t i = cur; i < stop; ++i) {
          const std::uint32_t page = mem[i];
          const double rank = rnk[i];
          dst_ranks[page] = rank;
          dst_shard[page] = sh;
          if (rank <= admit) continue;  // exact: ascending pages lose ties
          topk_offer(s.top, capacity_, TopKEntry{page, rank});
          if (s.top.size() == capacity_) admit = s.top.front().rank;
        }
      }
      cursor_scratch_[sh] = stop;
      admit_scratch_[sh] = admit;
    }
  }
  for (ShardIndex& s : shards_) topk_finalize(s.top);
}

std::vector<TopKEntry> RankSnapshot::top_k(std::size_t k) const {
  if (k == 0) return {};
  if (k <= capacity_) {
    std::vector<std::span<const TopKEntry>> lists;
    lists.reserve(shards_.size());
    for (const ShardIndex& s : shards_) lists.emplace_back(s.top);
    return merge_top_k(lists, k);
  }
  // Past the index depth the per-shard lists are lossy; fall back to the
  // full rank vector so k up to N stays exact.
  std::vector<TopKEntry> all;
  all.reserve(ranks_.size());
  for (std::uint32_t page = 0; page < ranks_.size(); ++page) {
    all.push_back(TopKEntry{page, ranks_[page]});
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), ranks_before);
  all.resize(take);
  return all;
}

std::vector<TopKEntry> RankSnapshot::shard_top_k(std::uint32_t s,
                                                 std::size_t k) const {
  const std::vector<TopKEntry>& top = shards_[s].top;
  const std::size_t take = std::min(k, top.size());
  return {top.begin(), top.begin() + static_cast<std::ptrdiff_t>(take)};
}

bool RankSnapshot::epoch_consistent() const noexcept {
  for (const ShardIndex& s : shards_) {
    if (s.epoch != epoch_) return false;
  }
  return true;
}

// Readers key on this exact header tag; bump the suffix on any layout change.
static_assert(kSnapshotFormat == "p2prank-snapshot-v1");

void RankSnapshot::serialize(std::ostream& out) const {
  const auto flags = out.flags();
  const auto precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);

  out << kSnapshotFormat << " epoch " << epoch_ << " time " << time_
      << " pages " << ranks_.size() << " shards " << num_shards_ << " k "
      << capacity_ << "\n";
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    out << i << " " << shard_of_[i] << " " << ranks_[i] << "\n";
  }
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    out << "shard " << s << " pages " << shards_[s].pages << " top";
    for (const TopKEntry& e : shards_[s].top) {
      out << " " << e.page << ":" << e.rank;
    }
    out << "\n";
  }

  out.flags(flags);
  out.precision(precision);
}

// ---------------------------------------------------------------------------
// SnapshotStore

SnapshotStore::SnapshotStore(std::size_t top_k_capacity)
    : capacity_(top_k_capacity) {
  for (auto& r : slot_released_) {
    r = std::make_shared<std::atomic<std::uint64_t>>(0);
  }
}

RankSnapshot& SnapshotStore::next_buffer() {
  const int slot = 1 - last_slot_;
  std::shared_ptr<RankSnapshot>& buf = buffers_[slot];
  // The acquire pairs with the release-store in the handle deleter below:
  // seeing the slot's own epoch proves every reader access to this buffer
  // happened-before, so rebuilding it in place is race-free.
  if (buf != nullptr && slot_released_[slot]->load(std::memory_order_acquire) ==
                            slot_epoch_[slot]) {
    ++buffer_reuses_;
  } else {
    // First publish, or a straggler reader still holds the old snapshot —
    // its handle keeps the (immutable) buffer alive; we start fresh.
    buf = std::make_shared<RankSnapshot>();
  }
  return *buf;
}

void SnapshotStore::commit() {
  const int slot = 1 - last_slot_;
  const std::uint64_t epoch = next_epoch_;
  slot_epoch_[slot] = epoch;
  // Readers get a handle with its OWN control block: when the last copy
  // dies, the deleter marks the slot released up to this epoch. The
  // captured owner keeps the buffer alive for stragglers even if the
  // publisher has already moved the slot on to a fresh allocation; the
  // CAS-max keeps an out-of-order stale deleter from regressing the marker.
  std::shared_ptr<const RankSnapshot> handle(
      buffers_[slot].get(),
      [owner = buffers_[slot], released = slot_released_[slot],
       epoch](const RankSnapshot*) {
        std::uint64_t seen = released->load(std::memory_order_relaxed);
        while (seen < epoch &&
               !released->compare_exchange_weak(seen, epoch,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
        }
      });
  {
    util::MutexLock l(mu_);
    current_ = std::move(handle);
  }
  latest_epoch_.store(epoch, std::memory_order_release);
  last_slot_ = slot;
  ++next_epoch_;
  ++published_;
}

void SnapshotStore::publish_groups(double time,
                                   std::span<const engine::GroupCut> groups,
                                   std::uint32_t num_pages,
                                   std::uint64_t ownership_version) {
  next_buffer().build_groups(next_epoch_, time, groups, num_pages,
                             ownership_version, capacity_);
  commit();
}

void SnapshotStore::invalidate(double /*time*/) {
  // Everything published so far — up to and including the current epoch —
  // reflects the rolled-back timeline. Keep serving it, flagged stale,
  // until the restore's warm start republishes.
  stale_epoch_.store(latest_epoch_.load(std::memory_order_acquire),
                     std::memory_order_release);
  ++invalidations_;
}

std::shared_ptr<const RankSnapshot> SnapshotStore::acquire() const {
  util::MutexLock l(mu_);
  return current_;
}

void SnapshotStore::set_shard_health(std::uint32_t shard, bool up) {
  if (shard >= kMaxHealthShards) return;
  const std::uint64_t bit = std::uint64_t{1} << (shard % 64);
  auto& word = shard_down_bits_[shard / 64];
  if (up) {
    word.fetch_and(~bit, std::memory_order_release);
  } else {
    word.fetch_or(bit, std::memory_order_release);
  }
}

bool SnapshotStore::shard_available(std::uint32_t shard) const {
  if (shard >= kMaxHealthShards) return true;
  const std::uint64_t bit = std::uint64_t{1} << (shard % 64);
  return (shard_down_bits_[shard / 64].load(std::memory_order_acquire) & bit) ==
         0;
}

// ---------------------------------------------------------------------------
// RankServer

std::shared_ptr<const RankSnapshot> RankServer::begin_query(
    bool topk, double now, bool& stale, bool& beyond_bound) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  (topk ? topk_queries_ : point_queries_).fetch_add(1,
                                                    std::memory_order_relaxed);
  std::shared_ptr<const RankSnapshot> snap = store_.acquire();
  if (snap == nullptr) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (!snap->epoch_consistent()) {
    torn_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  stale = store_.is_stale(*snap);
  if (stale) stale_reads_.fetch_add(1, std::memory_order_relaxed);
  // NaN `now` makes the subtraction NaN and the comparison false, so callers
  // without a clock never see degraded reads — no branch needed.
  beyond_bound =
      now - snap->publish_time() > staleness_bound_.load(std::memory_order_relaxed);
  if (beyond_bound) degraded_reads_.fetch_add(1, std::memory_order_relaxed);
  return snap;
}

PointResult RankServer::rank(std::uint32_t page, double now) const {
  PointResult r;
  std::shared_ptr<const RankSnapshot> snap =
      begin_query(false, now, r.stale, r.beyond_bound);
  if (snap == nullptr) return r;
  r.served = true;
  r.epoch = snap->epoch();
  r.publish_time = snap->publish_time();
  r.rank = page < snap->num_pages() ? snap->rank(page) : 0.0;
  if (page < snap->num_pages()) {
    r.shard = snap->shard_of(page);
    r.shard_down = !store_.shard_available(r.shard);
    if (r.shard_down) note_shard_down();
  }
  return r;
}

TopKResult RankServer::top_k(std::size_t k, double now) const {
  TopKResult r;
  std::shared_ptr<const RankSnapshot> snap =
      begin_query(true, now, r.stale, r.beyond_bound);
  if (snap == nullptr) return r;
  r.served = true;
  r.epoch = snap->epoch();
  r.publish_time = snap->publish_time();
  r.entries = snap->top_k(k);
  for (std::uint32_t sh = 0; sh < snap->num_shards(); ++sh) {
    if (!store_.shard_available(sh)) {
      r.shard_down = true;  // some contributor's data is from an evicted shard
      note_shard_down();
      break;
    }
  }
  return r;
}

TopKResult RankServer::shard_top_k(std::uint32_t shard, std::size_t k,
                                   double now) const {
  TopKResult r;
  std::shared_ptr<const RankSnapshot> snap =
      begin_query(true, now, r.stale, r.beyond_bound);
  if (snap == nullptr) return r;
  r.served = true;
  r.epoch = snap->epoch();
  r.publish_time = snap->publish_time();
  if (shard < snap->num_shards()) r.entries = snap->shard_top_k(shard, k);
  r.shard_down = !store_.shard_available(shard);
  if (r.shard_down) note_shard_down();
  return r;
}

// ---------------------------------------------------------------------------

void export_serve_metrics(const SnapshotStore& store, const RankServer& server,
                          obs::MetricsRegistry& m) {
  m.counter(obs::names::kServeQueries) = server.queries();
  m.counter(obs::names::kServePointQueries) = server.point_queries();
  m.counter(obs::names::kServeTopkQueries) = server.topk_queries();
  m.counter(obs::names::kServeTornReads) = server.torn_reads();
  m.counter(obs::names::kServeStaleReads) = server.stale_reads();
  m.counter(obs::names::kServeUnavailable) = server.unavailable();
  m.counter(obs::names::kServeDegradedReads) = server.degraded_reads();
  m.counter(obs::names::kServeShardUnavailableReads) = server.shard_down_reads();
  m.counter(obs::names::kServeSnapshotsPublished) = store.published();
  m.counter(obs::names::kServeSnapshotsInvalidated) = store.invalidations();
  m.counter(obs::names::kServeBufferReuses) = store.buffer_reuses();
}

}  // namespace p2prank::serve
