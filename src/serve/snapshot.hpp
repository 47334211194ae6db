// Epoch-swapped rank snapshots: the serving side of the engine's
// RankSnapshotSink contract (DESIGN.md §12).
//
// Three layers:
//  - RankSnapshot: one immutable, epoch-stamped cut of (ranks, ownership)
//    plus a per-shard top-K index. Never mutated after build — readers on
//    any thread query it lock-free once they hold a shared_ptr.
//  - SnapshotStore: the RankSnapshotSink implementation. Double-buffered:
//    the publisher (simulation thread) builds into whichever buffer no
//    reader still holds and atomically swaps it in; readers acquire() the
//    current snapshot under a mutex held only for the pointer copy.
//  - RankServer: a thread-safe query façade over the store that counts
//    queries, torn-epoch reads (the machine-checked "never happens"
//    tripwire), stale reads, and unavailability.
//
// Determinism: a snapshot is a pure function of (epoch, time, ranks,
// assignment, capacity) — the per-shard indexes and serialize() bytes are
// bitwise-identical across thread-pool sizes whenever the engine's rank
// vectors are, which the engine guarantees.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "engine/engine_types.hpp"
#include "serve/topk.hpp"
#include "util/thread_annotations.hpp"

namespace p2prank::obs {
class MetricsRegistry;
}  // namespace p2prank::obs

namespace p2prank::serve {

/// Wire-format tag of RankSnapshot::serialize (bump on layout change).
inline constexpr std::string_view kSnapshotFormat = "p2prank-snapshot-v1";

/// Per-shard slice of a snapshot: the shard's best `capacity` pages, sorted
/// by ranks_before, stamped with the owning snapshot's epoch. The stamp is
/// how the torn-read tripwire works: a reader that ever saw shard stamps
/// disagreeing with the snapshot epoch caught a mixed-epoch state, which
/// the double-buffer protocol promises is impossible.
struct ShardIndex {
  std::uint64_t epoch = 0;
  std::uint64_t pages = 0;  ///< pages owned by this shard at the epoch
  std::vector<TopKEntry> top;
};

/// One immutable cut of the engine: global ranks, page → shard ownership,
/// and per-shard top-K indexes, all stamped with one epoch. Construction
/// happens only inside SnapshotStore::publish_groups (simulation thread);
/// after that every member is const-in-practice and safe to read
/// concurrently.
class RankSnapshot {
 public:
  RankSnapshot() = default;

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  /// Virtual time of the publish that produced this snapshot.
  [[nodiscard]] double publish_time() const noexcept { return time_; }
  [[nodiscard]] std::size_t num_pages() const noexcept { return ranks_.size(); }
  [[nodiscard]] std::uint32_t num_shards() const noexcept { return num_shards_; }
  /// Per-shard index depth: shard_top_k / merge are exact up to this k.
  [[nodiscard]] std::size_t top_k_capacity() const noexcept { return capacity_; }

  [[nodiscard]] double rank(std::uint32_t page) const { return ranks_[page]; }
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t page) const {
    return shard_of_[page];
  }
  [[nodiscard]] std::span<const double> ranks() const noexcept { return ranks_; }
  [[nodiscard]] const ShardIndex& shard(std::uint32_t s) const {
    return shards_[s];
  }

  /// Global top-k, best first (ranks_before order). k <= top_k_capacity()
  /// is a K-way merge of the per-shard indexes; larger k (up to k = N)
  /// falls back to sorting the full rank vector, so it is exact for every
  /// k — just not index-speed.
  [[nodiscard]] std::vector<TopKEntry> top_k(std::size_t k) const;

  /// Shard-local top-k (clamped to the index depth and the shard size).
  [[nodiscard]] std::vector<TopKEntry> shard_top_k(std::uint32_t s,
                                                   std::size_t k) const;

  /// True iff every shard's epoch stamp equals the snapshot epoch — the
  /// torn-read tripwire readers check on every query.
  [[nodiscard]] bool epoch_consistent() const noexcept;

  /// Deterministic text dump (header "p2prank-snapshot-v1", doubles at
  /// max round-trip precision): equal snapshots produce equal bytes, the
  /// lever the cross-pool determinism tests pull on.
  void serialize(std::ostream& out) const;

 private:
  friend class SnapshotStore;

  /// (Re)build this object in place from per-group views, reusing vector
  /// capacity (the double buffer's reuse path): scatters and indexes in one
  /// blocked pass, reading and writing each byte once — and skipping the
  /// dense shard-map rewrite entirely when this buffer was last built under
  /// the same nonzero ownership_version.
  void build_groups(std::uint64_t epoch, double time,
                    std::span<const engine::GroupCut> groups,
                    std::uint32_t num_pages, std::uint64_t ownership_version,
                    std::size_t capacity);

  std::uint64_t epoch_ = 0;
  double time_ = 0.0;
  std::vector<double> ranks_;
  std::vector<std::uint32_t> shard_of_;
  std::vector<ShardIndex> shards_;
  std::uint32_t num_shards_ = 0;
  std::size_t capacity_ = 0;
  /// Ownership version shard_of_ was last built under (0 = must rebuild).
  std::uint64_t ownership_version_ = 0;
  /// Per-shard admission thresholds and merge cursors, live only inside
  /// build_groups() — publisher scratch kept as members so the buffer-reuse
  /// path allocates nothing.
  std::vector<double> admit_scratch_;
  std::vector<std::size_t> cursor_scratch_;
};

/// Double-buffered snapshot publisher + reader handoff. Exactly one
/// publisher (the simulation thread, via the RankSnapshotSink calls);
/// any number of reader threads calling acquire()/is_stale().
class SnapshotStore final : public engine::RankSnapshotSink {
 public:
  /// `top_k_capacity` is the per-shard index depth built at every publish.
  explicit SnapshotStore(std::size_t top_k_capacity = 16);

  // RankSnapshotSink (simulation thread only). The dense publish() is the
  // base class's: it validates and forwards here.
  void publish_groups(double time, std::span<const engine::GroupCut> groups,
                      std::uint32_t num_pages,
                      std::uint64_t ownership_version) override;
  void invalidate(double time) override;

  /// Current snapshot, or null before the first publish. The returned
  /// shared_ptr keeps the snapshot alive and immutable for as long as the
  /// reader holds it, however many publishes happen meanwhile.
  [[nodiscard]] std::shared_ptr<const RankSnapshot> acquire() const;

  /// True iff `snap` predates the last invalidate() — a restore rolled the
  /// engine back past it. Stale snapshots still serve (availability over
  /// freshness); callers surface the flag instead of failing.
  [[nodiscard]] bool is_stale(const RankSnapshot& snap) const {
    return snap.epoch() <= stale_epoch_.load(std::memory_order_acquire);
  }

  /// Degraded-serving shard health (DESIGN.md §13). The RecoverySupervisor
  /// marks a shard down at eviction and up again at rejoin/resync; queries
  /// touching a down shard still serve the last published data but carry an
  /// explicit shard_down flag. Atomic bitmap, so the supervisor (simulation
  /// thread) and query threads need no lock; shards >= kMaxHealthShards are
  /// always reported up.
  void set_shard_health(std::uint32_t shard, bool up);
  [[nodiscard]] bool shard_available(std::uint32_t shard) const;
  static constexpr std::uint32_t kMaxHealthShards = 256;

  [[nodiscard]] std::uint64_t latest_epoch() const {
    return latest_epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t stale_watermark() const {
    return stale_epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t top_k_capacity() const noexcept { return capacity_; }

  // Publisher-side tallies (read them after the simulation is done, or from
  // the simulation thread).
  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_;
  }
  /// Publishes that recycled a retired buffer instead of allocating — the
  /// steady state once no reader holds a straggler reference.
  [[nodiscard]] std::uint64_t buffer_reuses() const noexcept {
    return buffer_reuses_;
  }

 private:
  /// Pick the buffer to rebuild for the next epoch: the retired slot if no
  /// reader still holds it, a fresh allocation otherwise.
  [[nodiscard]] RankSnapshot& next_buffer();
  /// Swap the just-built buffer in as current and advance the epoch.
  void commit();

  std::size_t capacity_;

  mutable util::Mutex mu_;
  std::shared_ptr<const RankSnapshot> current_ P2P_GUARDED_BY(mu_);

  // Double buffer. Only the publisher touches these; a retired buffer is
  // rebuilt in place iff every reader handle from its last publish has been
  // released. The proof is a release/acquire handshake, NOT use_count():
  // each commit hands readers a shared_ptr with its own control block whose
  // deleter release-stores that publish's epoch into the slot's marker, and
  // next_buffer() acquire-loads the marker — shared_ptr::use_count() is a
  // relaxed load and would leave the reader's final access unordered
  // against the rebuild (TSan catches exactly that).
  std::shared_ptr<RankSnapshot> buffers_[2] P2P_EXTERNALLY_SYNCHRONIZED;
  std::uint64_t slot_epoch_[2] P2P_EXTERNALLY_SYNCHRONIZED = {0, 0};
  /// Highest publish epoch whose readers are all done with the slot.
  /// shared_ptr-owned so a straggler handle may outlive the store itself.
  std::shared_ptr<std::atomic<std::uint64_t>> slot_released_[2];
  int last_slot_ P2P_EXTERNALLY_SYNCHRONIZED = 1;

  std::atomic<std::uint64_t> latest_epoch_{0};
  std::atomic<std::uint64_t> stale_epoch_{0};
  /// One bit per shard, set = down (see set_shard_health).
  std::array<std::atomic<std::uint64_t>, kMaxHealthShards / 64> shard_down_bits_{};

  std::uint64_t next_epoch_ P2P_EXTERNALLY_SYNCHRONIZED = 1;
  std::uint64_t published_ P2P_EXTERNALLY_SYNCHRONIZED = 0;
  std::uint64_t invalidations_ P2P_EXTERNALLY_SYNCHRONIZED = 0;
  std::uint64_t buffer_reuses_ P2P_EXTERNALLY_SYNCHRONIZED = 0;
};

/// Point-rank query result.
struct PointResult {
  bool served = false;  ///< false only before the first publish
  bool stale = false;   ///< snapshot predates the last invalidate()
  /// Snapshot older than the staleness bound at query time (degraded read —
  /// served anyway, explicitly flagged; see RankServer::set_staleness_bound).
  bool beyond_bound = false;
  /// The page's owning shard is marked unavailable (evicted ranker).
  bool shard_down = false;
  double rank = 0.0;
  std::uint64_t epoch = 0;
  double publish_time = 0.0;           ///< virtual time of the snapshot
  std::uint32_t shard = UINT32_MAX;    ///< owning shard of the queried page
};

/// Top-K query result.
struct TopKResult {
  bool served = false;
  bool stale = false;
  bool beyond_bound = false;  ///< past the staleness bound (degraded read)
  /// Global top-K: some contributing shard is down; shard query: that shard.
  bool shard_down = false;
  std::uint64_t epoch = 0;
  double publish_time = 0.0;
  std::vector<TopKEntry> entries;
};

/// Thread-safe query façade: acquires a snapshot per query, runs the
/// torn-epoch tripwire, classifies stale/unavailable, and tallies
/// everything in relaxed atomics (counts, not synchronization — totals
/// are read after the load is done).
class RankServer {
 public:
  /// Pass as `now` when the caller has no clock: staleness-bound checking is
  /// skipped (NaN compares false against everything).
  static constexpr double kNoQueryTime =
      std::numeric_limits<double>::quiet_NaN();

  explicit RankServer(const SnapshotStore& store) : store_(store) {}

  /// Bounded-staleness contract (DESIGN.md §13): with a finite bound set, a
  /// query that passes its own virtual time `now` and finds the snapshot
  /// older than `bound` is still answered — availability over freshness —
  /// but flagged beyond_bound and tallied as a degraded read. The default
  /// bound (infinity) and the default `now` (NaN) both disable the check.
  void set_staleness_bound(double bound) {
    staleness_bound_.store(bound, std::memory_order_relaxed);
  }
  [[nodiscard]] double staleness_bound() const noexcept {
    return staleness_bound_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] PointResult rank(std::uint32_t page,
                                 double now = kNoQueryTime) const;
  [[nodiscard]] TopKResult top_k(std::size_t k,
                                 double now = kNoQueryTime) const;
  [[nodiscard]] TopKResult shard_top_k(std::uint32_t shard, std::size_t k,
                                       double now = kNoQueryTime) const;

  [[nodiscard]] std::uint64_t queries() const noexcept {
    return queries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t point_queries() const noexcept {
    return point_queries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t topk_queries() const noexcept {
    return topk_queries_.load(std::memory_order_relaxed);
  }
  /// Queries that observed a mixed-epoch snapshot. The serving contract
  /// says this is ZERO, always; the bench and chaos harness fail the run
  /// on any other value.
  [[nodiscard]] std::uint64_t torn_reads() const noexcept {
    return torn_reads_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stale_reads() const noexcept {
    return stale_reads_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t unavailable() const noexcept {
    return unavailable_.load(std::memory_order_relaxed);
  }
  /// Queries answered past the staleness bound and flagged beyond_bound.
  [[nodiscard]] std::uint64_t degraded_reads() const noexcept {
    return degraded_reads_.load(std::memory_order_relaxed);
  }
  /// Queries that touched a shard marked unavailable.
  [[nodiscard]] std::uint64_t shard_down_reads() const noexcept {
    return shard_down_reads_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared per-query bookkeeping; returns null when unavailable.
  std::shared_ptr<const RankSnapshot> begin_query(bool topk, double now,
                                                  bool& stale,
                                                  bool& beyond_bound) const;
  void note_shard_down() const {
    shard_down_reads_.fetch_add(1, std::memory_order_relaxed);
  }

  const SnapshotStore& store_;
  mutable std::atomic<double> staleness_bound_{
      std::numeric_limits<double>::infinity()};
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> point_queries_{0};
  mutable std::atomic<std::uint64_t> topk_queries_{0};
  mutable std::atomic<std::uint64_t> torn_reads_{0};
  mutable std::atomic<std::uint64_t> stale_reads_{0};
  mutable std::atomic<std::uint64_t> unavailable_{0};
  mutable std::atomic<std::uint64_t> degraded_reads_{0};
  mutable std::atomic<std::uint64_t> shard_down_reads_{0};
};

/// Set (not add) the serve.* counters in `m` from the store's and server's
/// tallies — call once after the load is done, mirroring the registry's
/// "export after join" discipline (metrics.hpp).
void export_serve_metrics(const SnapshotStore& store, const RankServer& server,
                          obs::MetricsRegistry& m);

}  // namespace p2prank::serve
