// Epoch-swapped snapshot store (DESIGN.md §12 "Serving contract"): readers
// never observe mixed epochs under concurrent publish, held snapshots stay
// immutable, invalidation marks published epochs stale without dropping
// availability, and engine-published snapshots are bitwise-identical across
// thread-pool sizes 1 / 2 / 8.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "serve/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::serve {
namespace {

constexpr double kAlpha = 0.85;

/// Publish a state whose every observable is a function of one value `v`:
/// any reader that sees disagreeing pieces caught a torn snapshot.
void publish_uniform(SnapshotStore& store, double v, std::size_t pages,
                     std::uint32_t shards) {
  std::vector<double> ranks(pages, v);
  std::vector<std::uint32_t> assignment(pages);
  for (std::size_t i = 0; i < pages; ++i) {
    assignment[i] = static_cast<std::uint32_t>(i % shards);
  }
  store.publish(v, ranks, assignment, shards);
}

TEST(ServeSnapshotStore, EmptyUntilFirstPublishThenAvailable) {
  SnapshotStore store(4);
  EXPECT_EQ(store.acquire(), nullptr);
  EXPECT_EQ(store.latest_epoch(), 0u);
  publish_uniform(store, 1.0, 10, 2);
  const auto snap = store.acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->num_pages(), 10u);
  EXPECT_EQ(snap->num_shards(), 2u);
  EXPECT_TRUE(snap->epoch_consistent());
  EXPECT_FALSE(store.is_stale(*snap));
}

TEST(ServeSnapshotStore, ReadersNeverObserveMixedEpochsUnderConcurrentPublish) {
  // Real threads, on purpose: this is the TSan target for the reader /
  // publisher path. The publisher rewrites the full state every iteration;
  // every value a reader can see is derived from the publish's single `v`,
  // so any torn read shows up as intra-snapshot disagreement.
  constexpr std::size_t kPages = 64;
  constexpr std::uint32_t kShards = 4;
  constexpr int kPublishes = 3000;
  SnapshotStore store(8);
  RankServer server(store);
  publish_uniform(store, 1.0, kPages, kShards);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mixed{0};
  const auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = store.acquire();
      if (snap == nullptr) continue;
      if (!snap->epoch_consistent()) mixed.fetch_add(1);
      const double v = snap->publish_time();
      for (std::uint32_t p = 0; p < snap->num_pages(); ++p) {
        if (snap->rank(p) != v) mixed.fetch_add(1);
      }
      const auto top = snap->top_k(5);
      for (const TopKEntry& e : top) {
        if (e.rank != v) mixed.fetch_add(1);
      }
      // The query façade runs the same tripwire and tallies it.
      (void)server.rank(static_cast<std::uint32_t>(snap->epoch() % kPages));
      (void)server.top_k(3);
    }
  };
  std::thread r1(reader), r2(reader), r3(reader);
  for (int i = 2; i < kPublishes; ++i) {
    publish_uniform(store, static_cast<double>(i), kPages, kShards);
  }
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  r3.join();

  EXPECT_EQ(mixed.load(), 0u);
  EXPECT_EQ(server.torn_reads(), 0u);
  EXPECT_EQ(server.unavailable(), 0u);
  EXPECT_GT(server.queries(), 0u);
  EXPECT_EQ(store.published(), static_cast<std::uint64_t>(kPublishes - 1));
}

TEST(ServeSnapshotStore, HeldSnapshotStaysImmutableAcrossPublishes) {
  SnapshotStore store(4);
  publish_uniform(store, 1.0, 8, 2);
  const auto held = store.acquire();
  ASSERT_NE(held, nullptr);
  // Burn through both buffers several times; the held snapshot must keep
  // its epoch-1 contents (the straggler path allocates fresh buffers
  // instead of rebuilding in place).
  for (int i = 2; i <= 9; ++i) publish_uniform(store, i, 8, 2);
  EXPECT_EQ(held->epoch(), 1u);
  EXPECT_TRUE(held->epoch_consistent());
  for (std::uint32_t p = 0; p < 8; ++p) EXPECT_EQ(held->rank(p), 1.0);
  const auto fresh = store.acquire();
  EXPECT_EQ(fresh->epoch(), 9u);
}

TEST(ServeSnapshotStore, RetiredBuffersAreReusedOnceReadersRelease) {
  SnapshotStore store(4);
  for (int i = 1; i <= 10; ++i) publish_uniform(store, i, 8, 2);
  // No reader ever held a reference: from the third publish on, every
  // publish rebuilds the retired buffer in place.
  EXPECT_EQ(store.buffer_reuses(), 8u);
  const auto snap = store.acquire();
  EXPECT_EQ(snap->epoch(), 10u);
  EXPECT_TRUE(snap->epoch_consistent());
}

TEST(ServeSnapshotStore, OwnershipVersionReuseKeepsShardMapExact) {
  // publish_groups may keep a buffer's dense page → shard map when the
  // publisher reports the same nonzero ownership version it was last built
  // under. Both double buffers cache independently, so drive several
  // publishes across a membership flip and check the full map (and the
  // per-shard indexes derived from it) after every single one.
  constexpr std::uint32_t kPages = 64;
  constexpr std::uint32_t kShards = 2;
  struct Cut {
    std::vector<std::uint32_t> members;
    std::vector<double> ranks;
  };
  // Assignment A: even/odd interleave. Assignment B: low/high halves.
  const auto assign_a = [](std::uint32_t p) { return p % 2; };
  const auto assign_b = [](std::uint32_t p) {
    return p < kPages / 2 ? 0u : 1u;
  };
  const auto publish_with = [&](SnapshotStore& store, auto assign, double v,
                                std::uint64_t version) {
    std::vector<Cut> cuts(kShards);
    for (std::uint32_t p = 0; p < kPages; ++p) {
      cuts[assign(p)].members.push_back(p);
      cuts[assign(p)].ranks.push_back(v + p);
    }
    std::vector<engine::GroupCut> views(kShards);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      views[s] = engine::GroupCut{cuts[s].members, cuts[s].ranks};
    }
    store.publish_groups(v, views, kPages, version);
  };
  const auto expect_matches = [&](const SnapshotStore& store, auto assign,
                                  double v) {
    const auto snap = store.acquire();
    ASSERT_NE(snap, nullptr);
    for (std::uint32_t p = 0; p < kPages; ++p) {
      ASSERT_EQ(snap->shard_of(p), assign(p)) << "page " << p << " v " << v;
      ASSERT_EQ(snap->rank(p), v + p);
    }
  };

  SnapshotStore store(4);
  // Three publishes under version 1: the third rebuilds a buffer that
  // already cached version 1 — the skip path proper.
  for (double v = 1.0; v <= 3.0; v += 1.0) {
    publish_with(store, assign_a, v, 1);
    expect_matches(store, assign_a, v);
  }
  // Membership flips, version bumps: BOTH buffers still hold version-1
  // maps and must each rebuild on their next turn.
  for (double v = 4.0; v <= 6.0; v += 1.0) {
    publish_with(store, assign_b, v, 2);
    expect_matches(store, assign_b, v);
  }
  // Version 0 means unknown provenance: never reused, always exact.
  publish_with(store, assign_a, 7.0, 0);
  expect_matches(store, assign_a, 7.0);
  publish_with(store, assign_b, 8.0, 0);
  expect_matches(store, assign_b, 8.0);
}

TEST(ServeSnapshotStore, DensePublishRejectsShardOutOfRange) {
  // The dense publish validates its whole input before it forwards to
  // publish_groups: a shard id past num_shards, or an assignment whose
  // length differs from the ranks', throws and publishes nothing.
  SnapshotStore store(4);
  const std::vector<double> ranks = {0.1, 0.2, 0.3};
  const std::vector<std::uint32_t> past_end = {0, 1, 7};
  const std::vector<std::uint32_t> unowned = {0, UINT32_MAX, 1};
  const std::vector<std::uint32_t> short_map = {0, 1};
  EXPECT_THROW(store.publish(1.0, ranks, past_end, 2), std::invalid_argument);
  EXPECT_THROW(store.publish(1.0, ranks, unowned, 2), std::invalid_argument);
  EXPECT_THROW(store.publish(1.0, ranks, short_map, 2), std::invalid_argument);
  EXPECT_EQ(store.latest_epoch(), 0u);
  EXPECT_EQ(store.acquire(), nullptr);

  const std::vector<std::uint32_t> valid = {0, 1, 1};
  store.publish(2.0, ranks, valid, 2);
  EXPECT_EQ(store.latest_epoch(), 1u);
  const auto snap = store.acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->shard_of(2), 1u);
  EXPECT_EQ(snap->rank(2), 0.3);
  EXPECT_EQ(snap->shard(1).pages, 2u);
}

TEST(ServeSnapshotStore, InvalidateMarksStaleButKeepsServing) {
  SnapshotStore store(4);
  RankServer server(store);
  publish_uniform(store, 1.0, 8, 2);
  publish_uniform(store, 2.0, 8, 2);
  store.invalidate(2.5);
  EXPECT_EQ(store.invalidations(), 1u);
  EXPECT_EQ(store.stale_watermark(), 2u);

  // Availability over freshness: the query serves, flagged stale.
  const PointResult r = server.rank(3);
  EXPECT_TRUE(r.served);
  EXPECT_TRUE(r.stale);
  EXPECT_EQ(r.rank, 2.0);
  EXPECT_EQ(server.stale_reads(), 1u);

  // The next publish supersedes the stale watermark.
  publish_uniform(store, 3.0, 8, 2);
  const PointResult r2 = server.rank(3);
  EXPECT_TRUE(r2.served);
  EXPECT_FALSE(r2.stale);
  EXPECT_EQ(r2.epoch, 3u);
}

// --- engine integration -----------------------------------------------------

class EngineServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<graph::WebGraph>(
        graph::generate_synthetic_web(graph::google2002_config(1200, 17)));
    assignment_ =
        partition::make_hash_url_partitioner()->partition(*graph_, 6);
  }

  engine::EngineOptions base_options() const {
    engine::EngineOptions eo;
    eo.algorithm = engine::Algorithm::kDPR2;
    eo.alpha = kAlpha;
    eo.t1 = 0.0;
    eo.t2 = 4.0;
    eo.seed = 5;
    return eo;
  }

  std::unique_ptr<graph::WebGraph> graph_;
  std::vector<std::uint32_t> assignment_;
};

TEST_F(EngineServeFixture, SnapshotsPublishAtIntervalFromTimeZero) {
  util::ThreadPool pool(2);
  SnapshotStore store(8);
  engine::EngineOptions eo = base_options();
  eo.snapshot_sink = &store;
  eo.snapshot_interval = 2.0;
  engine::DistributedRanking sim(*graph_, assignment_, 6, eo, pool);
  sim.set_reference(engine::open_system_reference(*graph_, kAlpha, pool));

  // Serving is live from t = 0: the constructor publishes epoch 1.
  const auto first = store.acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->epoch(), 1u);
  EXPECT_EQ(first->num_pages(), graph_->num_pages());
  EXPECT_EQ(first->num_shards(), 6u);

  (void)sim.run(20.0, 20.0);
  const auto later = store.acquire();
  ASSERT_NE(later, nullptr);
  EXPECT_GT(later->epoch(), first->epoch());
  // Cadence 2.0 over 20 time units: roughly ten more publishes, definitely
  // not one per loop step of every group.
  EXPECT_GE(store.published(), 8u);
  EXPECT_LE(store.published(), 16u);
  EXPECT_TRUE(later->epoch_consistent());
  // The published ranks are the engine's own, at most one publish interval
  // stale (groups keep sweeping after the last cadence boundary, so exact
  // equality with the live state is not promised — closeness is).
  const auto ranks = sim.global_ranks();
  double gap = 0.0, mass = 0.0;
  for (std::uint32_t p = 0; p < later->num_pages(); ++p) {
    gap += std::abs(later->rank(p) - ranks[p]);
    mass += ranks[p];
  }
  EXPECT_LT(gap, 0.05 * mass);
}

TEST_F(EngineServeFixture, SnapshotsBitwiseIdenticalAcrossPoolSizes) {
  const auto run_with_pool = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    SnapshotStore store(8);
    engine::EngineOptions eo = base_options();
    eo.snapshot_sink = &store;
    engine::DistributedRanking sim(*graph_, assignment_, 6, eo, pool);
    sim.set_reference(engine::open_system_reference(*graph_, kAlpha, pool));
    (void)sim.run(15.0, 15.0);
    std::ostringstream out;
    store.acquire()->serialize(out);
    return out.str();
  };
  const std::string pool1 = run_with_pool(1);
  const std::string pool2 = run_with_pool(2);
  const std::string pool8 = run_with_pool(8);
  EXPECT_FALSE(pool1.empty());
  EXPECT_EQ(pool1, pool2);
  EXPECT_EQ(pool1, pool8);
}

TEST_F(EngineServeFixture, ChurnRepublishesNewOwnershipImmediately) {
  util::ThreadPool pool(2);
  SnapshotStore store(8);
  engine::EngineOptions eo = base_options();
  eo.snapshot_sink = &store;
  engine::DistributedRanking sim(*graph_, assignment_, 6, eo, pool);
  sim.set_reference(engine::open_system_reference(*graph_, kAlpha, pool));
  (void)sim.run(5.0, 5.0);

  sim.leave_group(2, 3);
  const auto snap = store.acquire();
  ASSERT_NE(snap, nullptr);
  // The churn handoff warm-starts, which republishes: the latest snapshot
  // already shows group 2 emptied out, with no run() in between.
  std::size_t owned_by_2 = 0;
  for (std::uint32_t p = 0; p < snap->num_pages(); ++p) {
    if (snap->shard_of(p) == 2) ++owned_by_2;
  }
  EXPECT_EQ(owned_by_2, 0u);
  EXPECT_TRUE(snap->shard(2).top.empty());
  EXPECT_TRUE(snap->epoch_consistent());
}

TEST_F(EngineServeFixture, RestoreRollbackInvalidatesUntilWarmStart) {
  util::ThreadPool pool(2);
  SnapshotStore store(8);
  engine::EngineOptions eo = base_options();
  eo.snapshot_sink = &store;
  engine::DistributedRanking sim(*graph_, assignment_, 6, eo, pool);
  sim.set_reference(engine::open_system_reference(*graph_, kAlpha, pool));
  (void)sim.run(8.0, 8.0);
  const auto saved = sim.global_ranks();

  // The restore sequence the chaos harness runs: crash all, drop in-flight
  // slices (the rollback instant), warm start from the checkpoint.
  for (std::uint32_t grp = 0; grp < 6; ++grp) sim.crash_group(grp);
  sim.drop_in_flight();
  const auto stale = store.acquire();
  ASSERT_NE(stale, nullptr);
  EXPECT_TRUE(store.is_stale(*stale));  // published epochs now predate the
                                        // rollback — stale, still serving
  EXPECT_EQ(store.invalidations(), 1u);

  sim.warm_start(saved);
  const auto fresh = store.acquire();
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(store.is_stale(*fresh));
  EXPECT_GT(fresh->epoch(), stale->epoch());
  for (std::uint32_t p = 0; p < fresh->num_pages(); ++p) {
    EXPECT_EQ(fresh->rank(p), saved[p]);
  }
}

}  // namespace
}  // namespace p2prank::serve
