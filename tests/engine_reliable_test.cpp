// Tests for the reliable exchange layer (src/transport/reliable.hpp wired
// through DistributedRanking): the stale-Y reordering hazard and its epoch
// fix, EngineOptions validation messages, retransmission vs fire-and-forget
// convergence on a lossy channel, ranker churn conservation, and
// suspicion-based failure detection under ack loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;
constexpr double kTol = 1e-9;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

class ReliableFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::WebGraph(
        graph::generate_synthetic_web(graph::google2002_config(1500, 41)));
    reference_ = new std::vector<double>(
        open_system_reference(*graph_, kAlpha, pool()));
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete graph_;
    reference_ = nullptr;
    graph_ = nullptr;
  }

  static std::vector<std::uint32_t> assignment(std::uint32_t k) {
    return partition::make_hash_url_partitioner()->partition(*graph_, k);
  }

  static graph::WebGraph* graph_;
  static std::vector<double>* reference_;
};

graph::WebGraph* ReliableFixture::graph_ = nullptr;
std::vector<double>* ReliableFixture::reference_ = nullptr;

// --- Satellite 1: the stale-Y reordering hazard -------------------------
//
// With jittered delivery latency and NO epochs, a delayed older Y slice can
// arrive after a newer one and silently replace the newer X entry — ranks
// regress between samples, breaking Thm 4.1 monotonicity from R0 = 0. The
// epoch filter rejects exactly those slices (counted in
// EngineCounters::duplicates_rejected), restoring monotone growth under the
// same channel.
EngineOptions jittery_options(bool reliable) {
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.t1 = 0.3;
  o.t2 = 0.6;
  o.delivery_latency = 0.2;
  o.latency_jitter = 4.0;  // >> inter-step wait: reorders are routine
  o.seed = 11;
  o.reliable = reliable;
  return o;
}

TEST_F(ReliableFixture, JitterWithoutEpochsBreaksMonotonicity) {
  const auto a = assignment(4);
  DistributedRanking sim(*graph_, a, 4, jittery_options(false), pool());
  sim.set_reference(*reference_);
  const auto samples = sim.run(60.0, 1.0);
  double worst = 0.0;
  for (const Sample& s : samples) worst = std::min(worst, s.min_rank_delta);
  EXPECT_LT(worst, -kTol)
      << "stale reordered Y slices should have dragged some rank down";
  EXPECT_EQ(sim.counters().duplicates_rejected, 0u);  // no filter installed
}

TEST_F(ReliableFixture, EpochsRejectStaleSlicesAndRestoreMonotonicity) {
  const auto a = assignment(4);
  DistributedRanking sim(*graph_, a, 4, jittery_options(true), pool());
  sim.set_reference(*reference_);
  const auto samples = sim.run(60.0, 1.0);
  for (const Sample& s : samples) {
    EXPECT_GE(s.min_rank_delta, -kTol) << "t=" << s.time;
  }
  // The channel really did reorder: the filter had stale slices to reject.
  EXPECT_GT(sim.counters().duplicates_rejected, 0u);
  EXPECT_EQ(sim.counters().zombie_retransmits, 0u);
  // Epoch high-water marks are populated and survive the whole run.
  std::uint64_t total_epochs = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t d = 0; d < 4; ++d) total_epochs += sim.accepted_epoch(s, d);
  }
  EXPECT_GT(total_epochs, 0u);
}

// --- Satellite 2: EngineOptions validation ------------------------------

TEST_F(ReliableFixture, OptionValidationNamesTheBadField) {
  const auto a = assignment(4);
  const auto expect_invalid = [&](EngineOptions o, const std::string& field) {
    try {
      DistributedRanking sim(*graph_, a, 4, o, pool());
      FAIL() << "expected invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "message was: " << e.what();
    }
  };
  EngineOptions base;
  base.alpha = kAlpha;

  auto o = base;
  o.alpha = 1.5;
  expect_invalid(o, "alpha");
  o = base;
  o.inner_epsilon = 0.0;
  expect_invalid(o, "inner_epsilon");
  o = base;
  o.delivery_probability = 1.5;
  expect_invalid(o, "delivery_probability");
  o = base;
  o.t1 = -1.0;
  expect_invalid(o, "t1");
  o = base;
  o.t1 = 5.0;
  o.t2 = 1.0;
  expect_invalid(o, "t2");
  o = base;
  o.delivery_latency = -0.1;
  expect_invalid(o, "delivery_latency");
  o = base;
  o.latency_jitter = -0.1;
  expect_invalid(o, "latency_jitter");
  o = base;
  o.stability_epsilon = -1.0;
  expect_invalid(o, "stability_epsilon");
  o = base;
  o.send_threshold = -1.0;
  expect_invalid(o, "send_threshold");
}

// --- Satellite 3: lossy-channel convergence, reliable vs fire-and-forget -

EngineOptions lossy_options(bool reliable) {
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.delivery_probability = 0.5;
  o.t1 = 1.0;
  o.t2 = 1.0;
  o.seed = 2024;
  o.reliable = reliable;
  return o;
}

TEST_F(ReliableFixture, RetransmissionBeatsFireAndForgetAtHalfDelivery) {
  const auto a = assignment(4);

  DistributedRanking fire(*graph_, a, 4, lossy_options(false), pool());
  fire.set_reference(*reference_);
  const ConvergenceResult fr = fire.run_until_error(1e-7, 4000.0, 1.0);

  DistributedRanking rel(*graph_, a, 4, lossy_options(true), pool());
  rel.set_reference(*reference_);
  const ConvergenceResult rr = rel.run_until_error(1e-7, 4000.0, 1.0);

  ASSERT_TRUE(fr.reached) << "fire-and-forget never converged";
  ASSERT_TRUE(rr.reached) << "reliable never converged";
  EXPECT_LT(rr.time, fr.time)
      << "retransmission should recover lost slices faster than waiting for "
         "the next loop step";

  // Fire-and-forget reports no reliability traffic at all.
  EXPECT_EQ(fr.retransmissions, 0u);
  EXPECT_EQ(fr.acks_sent, 0u);
  EXPECT_EQ(fr.duplicates_rejected, 0u);
  EXPECT_EQ(fire.pending_retransmits(), 0u);

  // Reliable counters are populated and mutually consistent.
  EXPECT_GT(rr.retransmissions, 0u);
  EXPECT_GT(rr.acks_sent, 0u);
  EXPECT_LE(rr.retransmissions, rr.messages_sent);
  EXPECT_LE(rr.acks_delivered, rr.acks_sent);
  EXPECT_EQ(rr.zombie_retransmits, 0u);
}

// A cut drops acks as well as data. A dropped data slice is a lost message;
// an ack never counts in messages_sent, so partition_drops is not a
// subset of messages_lost. One-way cut: A→B data arrives and is acked, and
// every ack (B→A) dies at the cut, as does every B→A data slice.
TEST_F(ReliableFixture, CutAcksCountInPartitionDropsButNotMessagesLost) {
  const auto a = assignment(2);
  EngineOptions o;
  o.alpha = kAlpha;
  o.reliable = true;
  DistributedRanking sim(*graph_, a, 2, o, pool());
  sim.set_reference(*reference_);
  sim.set_partition(/*side_a_mask=*/0b1, /*deliver_ab=*/1.0, /*deliver_ba=*/0.0);
  (void)sim.run(30.0);
  const EngineCounters c = sim.counters();
  ASSERT_GT(c.acks_sent, 0u);
  EXPECT_EQ(c.acks_delivered, 0u);
  EXPECT_EQ(c.partition_drops, c.messages_lost + c.acks_sent);
}

// --- Ranker churn: leave/join conserve ownership and rank state ---------

TEST_F(ReliableFixture, LeaveAndJoinConservePagesAndRanks) {
  const auto a = assignment(4);
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.seed = 5;
  o.reliable = true;
  DistributedRanking sim(*graph_, a, 4, o, pool());
  sim.set_reference(*reference_);
  (void)sim.run(20.0, 5.0);

  const std::vector<double> before = sim.global_ranks();
  sim.leave_group(1, 2);
  EXPECT_EQ(sim.counters().churn_events, 1u);
  std::vector<std::uint32_t> owners = sim.current_assignment();
  ASSERT_EQ(owners.size(), graph_->num_pages());
  for (std::size_t p = 0; p < owners.size(); ++p) {
    EXPECT_NE(owners[p], 1u) << "page " << p << " still owned by departed group";
    EXPECT_LT(owners[p], 4u);
  }
  // The checkpoint text round-trip (setprecision 17) is exact: the handoff
  // must not perturb a single rank bit.
  const std::vector<double> after_leave = sim.global_ranks();
  ASSERT_EQ(after_leave.size(), before.size());
  for (std::size_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(after_leave[p], before[p]) << "page " << p;
  }

  sim.join_group(1, 2);  // the emptied slot rejoins, taking half of group 2
  EXPECT_EQ(sim.counters().churn_events, 2u);
  owners = sim.current_assignment();
  std::vector<std::size_t> sizes(4, 0);
  for (const std::uint32_t g : owners) {
    ASSERT_LT(g, 4u);
    ++sizes[g];
  }
  EXPECT_GT(sizes[1], 0u);
  EXPECT_GT(sizes[2], 0u);
  const std::vector<double> after_join = sim.global_ranks();
  for (std::size_t p = 0; p < before.size(); ++p) {
    EXPECT_EQ(after_join[p], before[p]) << "page " << p;
  }

  // Consistency survives the churn pair: the engine still converges and the
  // pre-churn sub-fixed-point state keeps the monotone/bound theorems alive.
  const ConvergenceResult res = sim.run_until_error(1e-5, 2000.0, 1.0);
  EXPECT_TRUE(res.reached);
  EXPECT_EQ(res.zombie_retransmits, 0u);
}

TEST_F(ReliableFixture, ChurnArgumentErrors) {
  const auto a = assignment(4);
  EngineOptions o;
  o.alpha = kAlpha;
  DistributedRanking sim(*graph_, a, 4, o, pool());
  EXPECT_THROW(sim.leave_group(9, 0), std::out_of_range);
  EXPECT_THROW(sim.leave_group(0, 9), std::out_of_range);
  EXPECT_THROW(sim.leave_group(2, 2), std::invalid_argument);
  EXPECT_THROW(sim.join_group(0, 1), std::invalid_argument);  // 0 not empty
  sim.leave_group(3, 0);
  EXPECT_THROW(sim.leave_group(3, 0), std::invalid_argument);  // now empty
  EXPECT_THROW(sim.join_group(3, 3), std::invalid_argument);
}

// --- Failure detection: a silent peer gets suspected, acks recover it ---
//
// Suspicion needs a pair with no evidence of life: an ack resets the
// attempt counter, and received data clears suspicion via peer_alive (a
// talking peer is alive even if its acks are lost). A one-directional cut
// (a chain split at the middle: only group 0 sends to group 1) removes the
// reverse keep-alive; lose every ack and pause the sender, and its pending
// epoch keeps timing out until the failure detector trips — and stays
// tripped.
TEST(ReliableSuspicion, SilentPeerGetsSuspectedAndAcksRecoverIt) {
  const graph::WebGraph g = test::chain(4);  // 0->1->2->3, one cut edge 1->2
  const std::vector<std::uint32_t> a = {0, 0, 1, 1};
  EngineOptions o;
  o.algorithm = Algorithm::kDPR2;
  o.alpha = kAlpha;
  o.t1 = 1.0;
  o.t2 = 1.0;
  o.seed = 3;
  o.reliable = true;
  DistributedRanking sim(g, a, 2, o, pool());
  sim.set_ack_delivery_probability(0.0);  // acks never arrive
  sim.set_reference(open_system_reference(g, kAlpha, pool()));
  (void)sim.run(5.0, 5.0);  // pair (0 -> 1) now holds an unacked epoch
  ASSERT_GT(sim.pending_retransmits(), 0u);
  EXPECT_GT(sim.counters().acks_sent, 0u);
  EXPECT_EQ(sim.counters().acks_delivered, 0u);

  sim.pause_group(0);  // no more fresh sends to reset the attempt counter
  (void)sim.run(25.0, 5.0);

  EXPECT_GT(sim.counters().retransmissions, 0u);
  EXPECT_GT(sim.counters().suspicions, 0u);
  EXPECT_GT(sim.suspected_pairs(), 0u);
  // Retransmits of already-delivered epochs bounce off the dup filter (a
  // paused ranker's transport still accepts and acks).
  EXPECT_GT(sim.counters().duplicates_rejected, 0u);
  EXPECT_EQ(sim.counters().zombie_retransmits, 0u);

  // Heal the ack channel and wake the sender: fresh sends double as probes,
  // their acks land, and the suspected pair recovers.
  sim.set_ack_delivery_probability(1.0);
  sim.resume_group(0);
  (void)sim.run(60.0, 10.0);
  EXPECT_GT(sim.counters().acks_delivered, 0u);
  EXPECT_EQ(sim.suspected_pairs(), 0u);
}

}  // namespace
}  // namespace p2prank::engine
