// Per-group diagnostics of the distributed engine.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;

util::ThreadPool& pool() {
  static util::ThreadPool p(2);
  return p;
}

class MetricsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<graph::WebGraph>(
        graph::generate_synthetic_web(graph::google2002_config(3000, 41)));
    assignment_ = partition::make_hash_url_partitioner()->partition(*graph_, 8);
    reference_ = open_system_reference(*graph_, kAlpha, pool());
  }

  std::unique_ptr<graph::WebGraph> graph_;
  std::vector<std::uint32_t> assignment_;
  std::vector<double> reference_;
};

TEST_F(MetricsFixture, PerGroupStepsSumToTotal) {
  EngineOptions opts;
  opts.t1 = 0.0;
  opts.t2 = 4.0;
  opts.seed = 2;
  DistributedRanking sim(*graph_, assignment_, 8, opts, pool());
  sim.set_reference(reference_);
  (void)sim.run(30.0, 30.0);
  const auto steps = sim.outer_steps_per_group();
  ASSERT_EQ(steps.size(), 8u);
  const auto sum = std::accumulate(steps.begin(), steps.end(), std::uint64_t{0});
  EXPECT_EQ(sum, sim.counters().outer_steps);
  // With random waits, groups step different numbers of times.
  EXPECT_NE(*std::min_element(steps.begin(), steps.end()),
            *std::max_element(steps.begin(), steps.end()));
}

TEST_F(MetricsFixture, PerGroupRecordsSumToTotal) {
  EngineOptions opts;
  opts.t1 = opts.t2 = 1.0;
  opts.seed = 2;
  DistributedRanking sim(*graph_, assignment_, 8, opts, pool());
  sim.set_reference(reference_);
  (void)sim.run(20.0, 20.0);
  const auto per_group = sim.records_sent_per_group();
  std::uint64_t sum = 0;
  for (const auto r : per_group) sum += r;
  EXPECT_EQ(sum, sim.counters().records_sent);
  // Every group has cut edges at K=8 with url hashing, so all send.
  for (const auto r : per_group) EXPECT_GT(r, 0u);
}

TEST_F(MetricsFixture, PausedGroupShowsZeroSteps) {
  EngineOptions opts;
  opts.t1 = opts.t2 = 1.0;
  opts.seed = 3;
  DistributedRanking sim(*graph_, assignment_, 8, opts, pool());
  sim.set_reference(reference_);
  sim.pause_group(5);
  (void)sim.run(20.0, 20.0);
  const auto steps = sim.outer_steps_per_group();
  EXPECT_EQ(steps[5], 0u);
  EXPECT_EQ(sim.records_sent_per_group()[5], 0u);
}

TEST_F(MetricsFixture, Dpr1WithLossIsSeedDeterministic) {
  auto run_once = [&] {
    EngineOptions opts;
    opts.algorithm = Algorithm::kDPR1;
    opts.delivery_probability = 0.6;
    opts.t1 = 0.0;
    opts.t2 = 5.0;
    opts.seed = 77;
    DistributedRanking sim(*graph_, assignment_, 8, opts, pool());
    sim.set_reference(reference_);
    (void)sim.run(25.0, 25.0);
    return std::pair(sim.counters(), sim.relative_error_now());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace p2prank::engine
