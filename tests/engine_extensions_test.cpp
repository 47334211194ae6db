// Tests for the engine extensions beyond the paper's core algorithms:
// delta-send thresholds (compression future work), dynamic link graphs via
// warm_start (Section 4.3's relaxed static-graph assumption), and ranker
// churn (pause/resume — "suspend itself as its wish, or even shutdown").
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_updates.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

class ExtensionsFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::WebGraph(
        graph::generate_synthetic_web(graph::google2002_config(4000, 91)));
    reference_ =
        new std::vector<double>(open_system_reference(*graph_, kAlpha, pool()));
    assignment_ = new std::vector<std::uint32_t>(
        partition::make_hash_url_partitioner()->partition(*graph_, 8));
  }
  static void TearDownTestSuite() {
    delete assignment_;
    delete reference_;
    delete graph_;
    assignment_ = nullptr;
    reference_ = nullptr;
    graph_ = nullptr;
  }
  static graph::WebGraph* graph_;
  static std::vector<double>* reference_;
  static std::vector<std::uint32_t>* assignment_;
};

graph::WebGraph* ExtensionsFixture::graph_ = nullptr;
std::vector<double>* ExtensionsFixture::reference_ = nullptr;
std::vector<std::uint32_t>* ExtensionsFixture::assignment_ = nullptr;

EngineOptions base_options() {
  EngineOptions o;
  o.algorithm = Algorithm::kDPR1;
  o.alpha = kAlpha;
  o.t1 = o.t2 = 1.0;
  o.seed = 5;
  return o;
}

// ----------------------------------------------------------- delta thresholds

TEST_F(ExtensionsFixture, SendThresholdCutsRecordsButKeepsConvergence) {
  auto plain_opts = base_options();
  DistributedRanking plain(*graph_, *assignment_, 8, plain_opts, pool());
  plain.set_reference(*reference_);
  (void)plain.run(40.0, 40.0);

  auto delta_opts = base_options();
  delta_opts.send_threshold = 1e-6;
  DistributedRanking delta(*graph_, *assignment_, 8, delta_opts, pool());
  delta.set_reference(*reference_);
  (void)delta.run(40.0, 40.0);

  EXPECT_LT(delta.counters().records_sent, plain.counters().records_sent / 2);
  // Error floor stays tiny for a tiny threshold.
  EXPECT_LT(delta.relative_error_now(), 1e-3);
}

TEST_F(ExtensionsFixture, LargerThresholdTradesAccuracyForTraffic) {
  auto small = base_options();
  small.send_threshold = 1e-8;
  auto large = base_options();
  large.send_threshold = 1e-3;

  DistributedRanking sim_small(*graph_, *assignment_, 8, small, pool());
  sim_small.set_reference(*reference_);
  (void)sim_small.run(40.0, 40.0);
  DistributedRanking sim_large(*graph_, *assignment_, 8, large, pool());
  sim_large.set_reference(*reference_);
  (void)sim_large.run(40.0, 40.0);

  EXPECT_LT(sim_large.counters().records_sent, sim_small.counters().records_sent);
  EXPECT_LE(sim_small.relative_error_now(),
            sim_large.relative_error_now() + 1e-12);
}

TEST_F(ExtensionsFixture, ThresholdWithLossStillConverges) {
  auto opts = base_options();
  opts.send_threshold = 1e-7;
  opts.delivery_probability = 0.7;
  DistributedRanking sim(*graph_, *assignment_, 8, opts, pool());
  sim.set_reference(*reference_);
  const auto result = sim.run_until_error(1e-3, 4000.0, 5.0);
  // Lost deltas must be retransmitted (commit only on delivery), so the
  // error still falls below a loose threshold.
  EXPECT_TRUE(result.reached) << result.final_relative_error;
}

TEST_F(ExtensionsFixture, DeltaSendsRecoverFromQuarantinedFrames) {
  // A fire-and-forget delta send commits where its slice reaches X. A frame
  // the codec quarantines passed the loss draw but was never applied, so
  // its entries stay pending and ride later sends; committed on the loss
  // draw, they would never be re-sent and X would stay stale for good.
  auto opts = base_options();
  opts.send_threshold = 1e-6;
  DistributedRanking sim(*graph_, *assignment_, 8, opts, pool());
  sim.set_reference(*reference_);
  sim.set_corruption(0.5);
  (void)sim.run(40.0, 40.0);
  ASSERT_GT(sim.counters().frames_quarantined, 0u);
  sim.set_corruption(0.0);
  (void)sim.run(400.0, 360.0);
  EXPECT_LT(sim.relative_error_now(), 2e-6);
}

// -------------------------------------------------------- dynamic link graphs

TEST_F(ExtensionsFixture, WarmStartAfterGraphChangeConvergesToNewReference) {
  // Converge on the original graph.
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  ASSERT_TRUE(sim.run_until_error(1e-6, 2000.0, 2.0).reached);
  const auto old_ranks = sim.global_ranks();

  // Rewire: delete one real link, add two new ones.
  graph::PageId with_link = 0;
  while (graph_->out_links(with_link).empty()) ++with_link;
  const auto target = graph_->out_links(with_link)[0];
  const std::vector<graph::LinkUpdate> ups{
      graph::LinkUpdate::remove_link(graph_->url(with_link), graph_->url(target)),
      graph::LinkUpdate::add_link(graph_->url(1), graph_->url(2)),
      graph::LinkUpdate::add_link(graph_->url(3), graph_->url(2)),
  };
  const auto g2 = graph::apply_updates(*graph_, ups);
  const auto ref2 = open_system_reference(g2, kAlpha, pool());

  DistributedRanking warm(g2, *assignment_, 8, base_options(), pool());
  warm.set_reference(ref2);
  warm.warm_start(old_ranks);
  // Already close (small change), and converges fully.
  EXPECT_LT(warm.relative_error_now(), 0.05);
  EXPECT_TRUE(warm.run_until_error(1e-6, 2000.0, 2.0).reached);
}

TEST_F(ExtensionsFixture, WarmStartBeatsColdStartForDpr2) {
  // DPR2 carries R directly across steps, so a warm-started run sits near
  // the new fixed point immediately. (DPR1's exact inner solve recomputes R
  // from X each step, so for it the warm start saves inner sweeps, not
  // outer rounds.)
  auto opts = base_options();
  opts.algorithm = Algorithm::kDPR2;
  DistributedRanking sim(*graph_, *assignment_, 8, opts, pool());
  sim.set_reference(*reference_);
  ASSERT_TRUE(sim.run_until_error(1e-6, 2000.0, 1.0).reached);
  const auto ranks = sim.global_ranks();

  const std::vector<graph::LinkUpdate> ups{
      graph::LinkUpdate::add_link(graph_->url(5), graph_->url(6))};
  const auto g2 = graph::apply_updates(*graph_, ups);
  const auto ref2 = open_system_reference(g2, kAlpha, pool());

  DistributedRanking warm(g2, *assignment_, 8, opts, pool());
  warm.set_reference(ref2);
  warm.warm_start(ranks);

  DistributedRanking cold(g2, *assignment_, 8, opts, pool());
  cold.set_reference(ref2);

  // After the same (short) virtual time, the warm engine must be far ahead.
  (void)warm.run(6.0, 6.0);
  (void)cold.run(6.0, 6.0);
  EXPECT_LT(warm.relative_error_now(), cold.relative_error_now() / 10.0);
  EXPECT_TRUE(warm.run_until_error(1e-6, 2000.0, 1.0).reached);
}

TEST_F(ExtensionsFixture, WarmStartValidatesSize) {
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  const std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(sim.warm_start(wrong), std::invalid_argument);
}

TEST_F(ExtensionsFixture, WarmStartSupersedesEarlierDeliveries) {
  // Slices delivered before a warm start carry X from the cold run. The
  // priming from the warm ranks must replace them, so the engine stays at
  // the reference instead of sliding back to the cold run's error.
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  (void)sim.run(3.0, 3.0);
  ASSERT_GT(sim.relative_error_now(), 1e-3);
  sim.warm_start(*reference_);
  (void)sim.run(5.0, 2.0);
  EXPECT_LT(sim.relative_error_now(), 1e-8);
}

// ------------------------------------------------------------------- churn

TEST_F(ExtensionsFixture, PausedGroupStallsConvergence) {
  auto opts = base_options();
  DistributedRanking sim(*graph_, *assignment_, 8, opts, pool());
  sim.set_reference(*reference_);
  sim.pause_group(0);
  sim.pause_group(1);
  EXPECT_TRUE(sim.is_paused(0));
  (void)sim.run(60.0, 60.0);
  // Two of eight groups never ran: their pages still hold rank 0, so the
  // error cannot reach the converged regime.
  EXPECT_GT(sim.relative_error_now(), 0.05);
  EXPECT_EQ(sim.group(0).outer_steps(), 0u);
}

TEST_F(ExtensionsFixture, ResumeRecovers) {
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  sim.pause_group(0);
  (void)sim.run(30.0, 30.0);
  const double stalled = sim.relative_error_now();
  sim.resume_group(0);
  EXPECT_FALSE(sim.is_paused(0));
  const auto result = sim.run_until_error(1e-5, 2000.0, 2.0);
  EXPECT_TRUE(result.reached);
  EXPECT_LT(sim.relative_error_now(), stalled);
}

TEST_F(ExtensionsFixture, ResumeIsIdempotent) {
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  sim.resume_group(3);  // not paused: no-op, no double scheduling
  (void)sim.run(10.0, 10.0);
  sim.pause_group(3);
  sim.resume_group(3);
  sim.resume_group(3);
  const auto r1 = sim.run(20.0, 10.0);
  EXPECT_FALSE(r1.empty());
}

TEST_F(ExtensionsFixture, CrashLosesStateButSystemRecovers) {
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  ASSERT_TRUE(sim.run_until_error(1e-5, 2000.0, 2.0).reached);

  sim.crash_group(2);
  // The crashed group's pages dropped to ~0: error jumps.
  const double after_crash = sim.relative_error_now();
  EXPECT_GT(after_crash, 1e-3);
  // Its peers keep ranking and re-deliver X; the group re-solves.
  const auto recovered = sim.run_until_error(1e-5, 2000.0, 2.0);
  EXPECT_TRUE(recovered.reached) << recovered.final_relative_error;
}

TEST_F(ExtensionsFixture, CrashPlusCheckpointRestoresInstantly) {
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  ASSERT_TRUE(sim.run_until_error(1e-6, 2000.0, 2.0).reached);
  const auto checkpoint = sim.global_ranks();

  sim.crash_group(1);
  sim.crash_group(4);
  EXPECT_GT(sim.relative_error_now(), 1e-3);
  sim.warm_start(checkpoint);  // restore from the saved ranks
  EXPECT_LT(sim.relative_error_now(), 1e-5);
}

TEST_F(ExtensionsFixture, RepeatedCrashesOfSameGroupStillConverge) {
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  for (int round = 0; round < 3; ++round) {
    (void)sim.run(sim.now() + 10.0, 5.0);
    sim.crash_group(0);
  }
  EXPECT_TRUE(sim.run_until_error(1e-5, 2000.0, 2.0).reached);
}

TEST_F(ExtensionsFixture, CrashWhilePausedStaysPausedUntilResume) {
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  (void)sim.run(20.0, 10.0);
  sim.pause_group(2);
  const auto steps_at_pause = sim.group(2).outer_steps();
  sim.crash_group(2);
  // Crash-while-down: state is wiped but the group reboots into standby.
  EXPECT_TRUE(sim.is_paused(2));
  (void)sim.run(60.0, 20.0);
  EXPECT_EQ(sim.group(2).outer_steps(), steps_at_pause);
  for (const graph::PageId p : sim.group(2).members()) {
    EXPECT_EQ(sim.global_ranks()[p], 0.0);
    break;  // one page suffices; ranks() copies the whole vector
  }
  sim.resume_group(2);
  EXPECT_TRUE(sim.run_until_error(1e-5, 2000.0, 2.0).reached);
}

TEST_F(ExtensionsFixture, FaultsOnEmptyGroupsAreSafeNoOps) {
  // 4 pages spread over 12 groups: most groups are empty. Faulting an empty
  // group must neither throw nor wedge the run.
  const graph::WebGraph tiny = [] {
    graph::GraphBuilder b;
    const auto hub = b.add_page("s.edu/hub", "s.edu");
    for (int i = 0; i < 3; ++i) {
      b.add_link(b.add_page("s.edu/l" + std::to_string(i), "s.edu"), hub);
    }
    return std::move(b).build();
  }();
  const auto assignment =
      partition::make_hash_url_partitioner()->partition(tiny, 12);
  DistributedRanking sim(tiny, assignment, 12, base_options(), pool());
  sim.set_reference(open_system_reference(tiny, kAlpha, pool()));
  std::uint32_t empty_group = 12;
  for (std::uint32_t g = 0; g < 12; ++g) {
    if (sim.group(g).size() == 0) { empty_group = g; break; }
  }
  ASSERT_LT(empty_group, 12u);
  sim.crash_group(empty_group);
  sim.pause_group(empty_group);
  sim.crash_group(empty_group);  // crash while paused, still empty
  sim.resume_group(empty_group);
  EXPECT_TRUE(sim.run_until_error(1e-8, 2000.0, 2.0).reached);
  EXPECT_EQ(sim.group(empty_group).outer_steps(), 0u);
  EXPECT_THROW(sim.crash_group(12), std::out_of_range);
  EXPECT_THROW(sim.pause_group(12), std::out_of_range);
}

TEST_F(ExtensionsFixture, DoublePauseIsLevelTriggeredSingleResumeRestarts) {
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  sim.pause_group(5);
  sim.pause_group(5);  // pause is a level, not a count
  (void)sim.run(20.0, 10.0);
  EXPECT_EQ(sim.group(5).outer_steps(), 0u);
  sim.resume_group(5);  // ONE resume restarts it
  EXPECT_FALSE(sim.is_paused(5));
  (void)sim.run(40.0, 10.0);
  EXPECT_GT(sim.group(5).outer_steps(), 0u);
  EXPECT_TRUE(sim.run_until_error(1e-5, 2000.0, 2.0).reached);
}

TEST_F(ExtensionsFixture, ChurnDuringRunIsTolerated) {
  // Pause/resume alternating groups between run windows — the monotone
  // machinery must keep converging through the churn.
  DistributedRanking sim(*graph_, *assignment_, 8, base_options(), pool());
  sim.set_reference(*reference_);
  for (int round = 0; round < 4; ++round) {
    const auto victim = static_cast<std::uint32_t>(round % 8);
    sim.pause_group(victim);
    (void)sim.run(sim.now() + 10.0, 5.0);
    sim.resume_group(victim);
  }
  const auto result = sim.run_until_error(1e-5, 2000.0, 2.0);
  EXPECT_TRUE(result.reached);
}

// ---------------------------------------------------------- worklist options

TEST_F(ExtensionsFixture, WorklistOptionValidationRejectsBadValues) {
  // Only exact mode exists: asking for any threshold is refused rather than
  // silently running ε = 0.
  for (const double eps : {-1.0, 1e-9, std::numeric_limits<double>::quiet_NaN()}) {
    auto o = base_options();
    o.worklist_epsilon = eps;
    EXPECT_THROW(DistributedRanking(*graph_, *assignment_, 8, o, pool()),
                 std::invalid_argument)
        << "worklist_epsilon " << eps;
  }
}

}  // namespace
}  // namespace p2prank::engine
