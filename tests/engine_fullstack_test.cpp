// Full-stack mode: the engine's Y messages routed over an actual structured
// overlay (ranker i = overlay node i), with latency = hops × per-hop cost —
// the deployment the paper describes (rankers on Pastry, indirect
// transmission) simulated end to end.
#include <gtest/gtest.h>

#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "overlay/can.hpp"
#include "overlay/chord.hpp"
#include "overlay/pastry.hpp"
#include "partition/partitioner.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;
constexpr std::uint32_t kRankers = 16;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

class FullStackFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::WebGraph(
        graph::generate_synthetic_web(graph::google2002_config(3000, 71)));
    reference_ =
        new std::vector<double>(open_system_reference(*graph_, kAlpha, pool()));
    assignment_ = new std::vector<std::uint32_t>(
        partition::make_hash_url_partitioner()->partition(*graph_, kRankers));
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

graph::WebGraph* FullStackFixture::graph_ = nullptr;
std::vector<double>* FullStackFixture::reference_ = nullptr;
std::vector<std::uint32_t>* FullStackFixture::assignment_ = nullptr;

overlay::PastryOverlay make_pastry(std::uint32_t n, int leaf_set = 16) {
  overlay::PastryConfig cfg;
  cfg.num_nodes = n;
  cfg.leaf_set_size = leaf_set;
  cfg.seed = 9;
  return overlay::PastryOverlay(cfg);
}

TEST_F(FullStackFixture, RejectsOverlaySmallerThanK) {
  const auto o = make_pastry(kRankers / 2);
  EngineOptions opts;
  opts.overlay = &o;
  EXPECT_THROW(DistributedRanking(*graph_, *assignment_, kRankers, opts, pool()),
               std::invalid_argument);
}

TEST_F(FullStackFixture, ConvergesOverPastry) {
  // A small leaf set forces genuine multi-hop prefix routing even at N=16
  // (the default leaf set of 16 would cover the whole ring in one hop).
  const auto o = make_pastry(kRankers, /*leaf_set=*/4);
  EngineOptions opts;
  opts.alpha = kAlpha;
  opts.t1 = opts.t2 = 2.0;
  opts.overlay = &o;
  opts.per_hop_latency = 0.5;
  opts.seed = 4;
  DistributedRanking sim(*graph_, *assignment_, kRankers, opts, pool());
  sim.set_reference(*reference_);
  const ConvergenceResult r = sim.run_until_error(1e-4, 3000.0, 2.0);
  EXPECT_TRUE(r.reached);
  EXPECT_GT(r.record_hops, r.records_sent);  // multi-hop routes exist
}

TEST_F(FullStackFixture, ConvergesOverChordAndCan) {
  overlay::ChordConfig ccfg;
  ccfg.num_nodes = kRankers;
  ccfg.seed = 9;
  const overlay::ChordOverlay chord(ccfg);
  overlay::CanConfig acfg;
  acfg.num_nodes = kRankers;
  acfg.seed = 9;
  const overlay::CanOverlay can(acfg);
  for (const overlay::Overlay* o :
       {static_cast<const overlay::Overlay*>(&chord),
        static_cast<const overlay::Overlay*>(&can)}) {
    EngineOptions opts;
    opts.alpha = kAlpha;
    opts.t1 = opts.t2 = 2.0;
    opts.overlay = o;
    opts.seed = 4;
    DistributedRanking sim(*graph_, *assignment_, kRankers, opts, pool());
    sim.set_reference(*reference_);
    EXPECT_TRUE(sim.run_until_error(1e-4, 3000.0, 2.0).reached) << o->name();
  }
}

TEST_F(FullStackFixture, SlowerHopsSlowConvergence) {
  const auto o = make_pastry(kRankers);
  auto run_with = [&](double per_hop) {
    EngineOptions opts;
    opts.alpha = kAlpha;
    opts.t1 = opts.t2 = 2.0;
    opts.overlay = &o;
    opts.per_hop_latency = per_hop;
    opts.seed = 4;
    DistributedRanking sim(*graph_, *assignment_, kRankers, opts, pool());
    sim.set_reference(*reference_);
    return sim.run_until_error(1e-4, 5000.0, 2.0);
  };
  const auto fast = run_with(0.1);
  const auto slow = run_with(8.0);
  ASSERT_TRUE(fast.reached);
  ASSERT_TRUE(slow.reached);
  EXPECT_LT(fast.time, slow.time);
}

TEST_F(FullStackFixture, RecordHopsMatchDitAccounting) {
  // record_hops / records == mean route length over the (src,dst) pairs
  // actually used; must sit in Pastry's expected range for N=16.
  const auto o = make_pastry(kRankers);
  EngineOptions opts;
  opts.alpha = kAlpha;
  opts.t1 = opts.t2 = 2.0;
  opts.overlay = &o;
  opts.seed = 4;
  DistributedRanking sim(*graph_, *assignment_, kRankers, opts, pool());
  sim.set_reference(*reference_);
  (void)sim.run(30.0, 30.0);
  const double mean_hops = static_cast<double>(sim.counters().record_hops) /
                           static_cast<double>(sim.counters().records_sent);
  EXPECT_GT(mean_hops, 0.5);
  EXPECT_LT(mean_hops, 3.0);  // log16(16) = 1, leaf shortcuts below
}

TEST_F(FullStackFixture, AbstractChannelReportsZeroHops) {
  EngineOptions opts;
  opts.alpha = kAlpha;
  opts.t1 = opts.t2 = 2.0;
  opts.seed = 4;
  DistributedRanking sim(*graph_, *assignment_, kRankers, opts, pool());
  sim.set_reference(*reference_);
  (void)sim.run(10.0, 10.0);
  EXPECT_EQ(sim.counters().record_hops, 0u);
}

}  // namespace
}  // namespace p2prank::engine
