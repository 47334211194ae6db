// Tests for the RecoverySupervisor (src/recover/): eviction quorum under a
// hard partition, ownership-ledger fidelity through the handoff, rejoin
// after heal with monotone recovery epochs, the break_rejoin_ledger
// self-test fault, shard-health marks in the serve layer — plus the
// satellite regression that a long hard partition neither storms the
// retransmit path nor evades the failure detector (DESIGN.md §13).
#include "recover/supervisor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "serve/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::recover {
namespace {

constexpr double kAlpha = 0.85;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

engine::EngineOptions reliable_options(std::uint64_t seed) {
  engine::EngineOptions o;
  o.algorithm = engine::Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.t1 = 0.5;
  o.t2 = 1.0;
  o.seed = seed;
  o.reliable = true;
  return o;
}

struct Rig {
  graph::WebGraph g;
  std::vector<std::uint32_t> assignment;
  engine::DistributedRanking sim;

  explicit Rig(std::uint64_t seed, std::uint32_t k = 4)
      : g(graph::generate_synthetic_web(graph::google2002_config(400, 17))),
        assignment(partition::make_hash_url_partitioner()->partition(g, k)),
        sim(g, assignment, k, reliable_options(seed), pool()) {
    sim.set_reference(engine::open_system_reference(g, kAlpha, pool()));
  }
};

/// Advance the simulation in sample-sized chunks, ticking the supervisor at
/// each boundary (the chaos runner's cadence), until `until` or `done`.
template <typename Done>
double drive(engine::DistributedRanking& sim, RecoverySupervisor& sup,
             double until, Done done) {
  while (sim.now() < until) {
    (void)sim.run(sim.now() + 2.0, 2.0);  // run() takes absolute t_end
    sup.tick(sim.now());
    if (done()) break;
  }
  return sim.now();
}

bool ledger_matches(const RecoverySupervisor& sup,
                    const engine::DistributedRanking& sim) {
  const auto ledger = sup.ledger();
  const auto assignment = sim.current_assignment();
  if (ledger.size() != assignment.size()) return false;
  for (std::size_t p = 0; p < ledger.size(); ++p) {
    if (ledger[p] != assignment[p]) return false;
  }
  return true;
}

TEST(RecoverySupervisor, EvictsIsolatedRankerAndRejoinsAfterHeal) {
  Rig rig(3);
  serve::SnapshotStore store;
  SupervisorOptions opts;
  opts.serve_store = &store;
  RecoverySupervisor sup(rig.sim, opts);
  ASSERT_TRUE(ledger_matches(sup, rig.sim));
  ASSERT_TRUE(store.shard_available(0));

  // Hard both-way cut isolating ranker 0 from the majority side.
  rig.sim.set_partition(0b1, 0.0, 0.0);
  drive(rig.sim, sup, 120.0,
        [&] { return sup.state(0) == RankerState::kEvicted; });
  ASSERT_EQ(sup.state(0), RankerState::kEvicted) << "eviction never fired";
  EXPECT_EQ(sup.evictions(), 1u);
  EXPECT_EQ(rig.sim.group(0).size(), 0u) << "pages not handed off";
  EXPECT_TRUE(ledger_matches(sup, rig.sim))
      << "ledger diverged from the engine across the handoff";
  EXPECT_EQ(sup.recovery_epoch(0), 1u);
  EXPECT_FALSE(store.shard_available(0)) << "shard not marked down";
  // Only the isolated ranker was evicted.
  for (std::uint32_t r = 1; r < 4; ++r) {
    EXPECT_EQ(sup.state(r), RankerState::kHealthy) << "ranker " << r;
  }

  rig.sim.heal_partition();
  drive(rig.sim, sup, rig.sim.now() + 60.0,
        [&] { return sup.state(0) == RankerState::kHealthy; });
  ASSERT_EQ(sup.state(0), RankerState::kHealthy) << "rejoin never fired";
  EXPECT_EQ(sup.rejoins(), 1u);
  EXPECT_GT(rig.sim.group(0).size(), 0u) << "rejoin handed no pages back";
  EXPECT_TRUE(ledger_matches(sup, rig.sim))
      << "ledger diverged from the engine across the rejoin split";
  EXPECT_EQ(sup.recovery_epoch(0), 2u) << "fencing token must keep rising";
  EXPECT_TRUE(store.shard_available(0)) << "shard not marked back up";

  // And the healed system still converges: the handoffs conserved pages.
  EXPECT_TRUE(rig.sim.run_until_error(1e-6, 4000.0, 2.0).reached);
}

TEST(RecoverySupervisor, BrokenRejoinLedgerIsDetectable) {
  // The scenario_fuzz --broken self-test fault: rejoin moves pages in the
  // engine but "forgets" the ledger update. The divergence must be visible
  // to the runner's cross-check immediately after the rejoin.
  Rig rig(3);
  SupervisorOptions opts;
  opts.break_rejoin_ledger = true;
  RecoverySupervisor sup(rig.sim, opts);

  rig.sim.set_partition(0b1, 0.0, 0.0);
  drive(rig.sim, sup, 120.0,
        [&] { return sup.state(0) == RankerState::kEvicted; });
  ASSERT_EQ(sup.state(0), RankerState::kEvicted);
  EXPECT_TRUE(ledger_matches(sup, rig.sim)) << "eviction path is not broken";

  rig.sim.heal_partition();
  drive(rig.sim, sup, rig.sim.now() + 60.0,
        [&] { return sup.state(0) == RankerState::kHealthy; });
  ASSERT_EQ(sup.state(0), RankerState::kHealthy);
  EXPECT_FALSE(ledger_matches(sup, rig.sim))
      << "broken rejoin ledger went undetected";
}

TEST(RecoverySupervisor, NoQuorumNoEviction) {
  // Fault-free run: the quorum can never hold, so membership never changes
  // and the ledger just mirrors the initial assignment.
  Rig rig(5);
  RecoverySupervisor sup(rig.sim, {});
  drive(rig.sim, sup, 40.0, [] { return false; });
  EXPECT_EQ(sup.evictions(), 0u);
  EXPECT_EQ(sup.rejoins(), 0u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(sup.state(r), RankerState::kHealthy);
    EXPECT_EQ(sup.recovery_epoch(r), 0u);
  }
  EXPECT_TRUE(ledger_matches(sup, rig.sim));
}

TEST(RecoverySupervisor, ResyncAdoptsScriptedChurn) {
  Rig rig(7);
  RecoverySupervisor sup(rig.sim, {});
  // Scripted churn behind the supervisor's back (the chaos kLeave op).
  rig.sim.leave_group(2, 1);
  EXPECT_FALSE(ledger_matches(sup, rig.sim)) << "churn should desync the ledger";
  sup.resync(rig.sim.now());
  EXPECT_TRUE(ledger_matches(sup, rig.sim));
  EXPECT_EQ(sup.resyncs(), 1u);
}

// --- Satellite: long-partition transport regression ---------------------
//
// Before the backoff fix, every fresh send reset the pair's rto to the
// initial RTO, so a long partition retransmitted at the minimum interval
// forever (a storm); and before the superseded-strike fix, those same fresh
// sends kept any timer from ever striking, so suspicion could not trip and
// the storm never even parked. Run >= 10k outer steps under a hard cut and
// hold both ends of the contract: the detector fires, and the retransmit
// volume stays a small fraction of the send volume.
TEST(RecoverySupervisor, TenThousandStepPartitionIsBoundedAndDetected) {
  engine::EngineOptions o = reliable_options(11);
  o.t1 = 0.1;
  o.t2 = 0.2;
  const auto g =
      graph::generate_synthetic_web(graph::google2002_config(200, 29));
  const auto assignment =
      partition::make_hash_url_partitioner()->partition(g, 4);
  engine::DistributedRanking sim(g, assignment, 4, o, pool());
  sim.set_reference(engine::open_system_reference(g, kAlpha, pool()));

  sim.set_partition(0b1, 0.0, 0.0);
  while (sim.counters().outer_steps < 10000) {
    (void)sim.run(sim.now() + 50.0, 50.0);
  }
  EXPECT_GE(sim.counters().outer_steps, 10000u);
  EXPECT_GT(sim.suspected_pairs(), 0u)
      << "a hard partition must trip the failure detector";
  EXPECT_EQ(sim.counters().zombie_retransmits, 0u);
  // Suspicion parks the cut pairs' retransmits after a handful of strikes;
  // everything left is ordinary loss-free ack traffic. Pre-fix this was a
  // storm at the initial RTO's cadence (tens of thousands).
  EXPECT_LT(sim.counters().retransmissions, sim.counters().messages_sent / 10)
      << "retransmit volume looks like a storm";

  // Heal: probes clear suspicion and the pairs drain back to normal.
  sim.heal_partition();
  (void)sim.run(sim.now() + 100.0, 100.0);
  EXPECT_EQ(sim.suspected_pairs(), 0u) << "suspicion survived the heal";
}

}  // namespace
}  // namespace p2prank::recover
