#include "engine/distributed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "test_support.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

class DistributedFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::WebGraph(
        graph::generate_synthetic_web(graph::google2002_config(5000, 55)));
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

graph::WebGraph* DistributedFixture::graph_ = nullptr;
std::vector<double>* DistributedFixture::reference_ = nullptr;

EngineOptions options(Algorithm alg, double p = 1.0, double t1 = 1.0,
                      double t2 = 1.0) {
  EngineOptions o;
  o.algorithm = alg;
  o.alpha = kAlpha;
  o.delivery_probability = p;
  o.t1 = t1;
  o.t2 = t2;
  o.seed = 2024;
  return o;
}

TEST_F(DistributedFixture, ConstructorValidation) {
  const auto a = assignment(4);
  EXPECT_THROW(DistributedRanking(*graph_, a, 0, options(Algorithm::kDPR1), pool()),
               std::invalid_argument);
  std::vector<std::uint32_t> short_a(graph_->num_pages() - 1, 0);
  EXPECT_THROW(
      DistributedRanking(*graph_, short_a, 4, options(Algorithm::kDPR1), pool()),
      std::invalid_argument);
  std::vector<std::uint32_t> bad_values(graph_->num_pages(), 4);  // == k
  EXPECT_THROW(
      DistributedRanking(*graph_, bad_values, 4, options(Algorithm::kDPR1), pool()),
      std::invalid_argument);
  auto bad_alpha = options(Algorithm::kDPR1);
  bad_alpha.alpha = 1.0;
  EXPECT_THROW(DistributedRanking(*graph_, a, 4, bad_alpha, pool()),
               std::invalid_argument);
}

TEST_F(DistributedFixture, RequiresReferenceBeforeRunning) {
  const auto a = assignment(4);
  DistributedRanking sim(*graph_, a, 4, options(Algorithm::kDPR1), pool());
  EXPECT_THROW((void)sim.run(10.0), std::logic_error);
  EXPECT_THROW((void)sim.relative_error_now(), std::logic_error);
  EXPECT_THROW(sim.set_reference(std::vector<double>(3, 0.0)),
               std::invalid_argument);
}

TEST_F(DistributedFixture, Dpr1ConvergesToCentralizedRanks) {
  const auto a = assignment(8);
  DistributedRanking sim(*graph_, a, 8, options(Algorithm::kDPR1), pool());
  sim.set_reference(*reference_);
  const auto result = sim.run_until_error(1e-4, 400.0, 2.0);
  EXPECT_TRUE(result.reached) << "err=" << result.final_relative_error;
  EXPECT_LT(result.final_relative_error, 1e-4);
}

TEST_F(DistributedFixture, Dpr2ConvergesToCentralizedRanks) {
  const auto a = assignment(8);
  DistributedRanking sim(*graph_, a, 8, options(Algorithm::kDPR2), pool());
  sim.set_reference(*reference_);
  const auto result = sim.run_until_error(1e-4, 2000.0, 5.0);
  EXPECT_TRUE(result.reached) << "err=" << result.final_relative_error;
}

TEST_F(DistributedFixture, Dpr1NeedsFewerOuterStepsThanDpr2) {
  const auto a = assignment(8);
  DistributedRanking dpr1(*graph_, a, 8, options(Algorithm::kDPR1), pool());
  dpr1.set_reference(*reference_);
  const auto r1 = dpr1.run_until_error(1e-4, 2000.0, 2.0);
  DistributedRanking dpr2(*graph_, a, 8, options(Algorithm::kDPR2), pool());
  dpr2.set_reference(*reference_);
  const auto r2 = dpr2.run_until_error(1e-4, 2000.0, 2.0);
  ASSERT_TRUE(r1.reached);
  ASSERT_TRUE(r2.reached);
  EXPECT_LT(r1.mean_outer_steps, r2.mean_outer_steps);
}

TEST_F(DistributedFixture, ConvergesDespiteMessageLoss) {
  const auto a = assignment(8);
  DistributedRanking sim(*graph_, a, 8,
                         options(Algorithm::kDPR1, /*p=*/0.7), pool());
  sim.set_reference(*reference_);
  const auto result = sim.run_until_error(1e-4, 2000.0, 5.0);
  EXPECT_TRUE(result.reached);
  EXPECT_GT(sim.counters().messages_lost, 0u);
}

TEST_F(DistributedFixture, LossySimConvergesSlowerThanLossless) {
  const auto a = assignment(8);
  DistributedRanking clean(*graph_, a, 8, options(Algorithm::kDPR1, 1.0), pool());
  clean.set_reference(*reference_);
  const auto rc = clean.run_until_error(1e-4, 2000.0, 2.0);
  DistributedRanking lossy(*graph_, a, 8, options(Algorithm::kDPR1, 0.5), pool());
  lossy.set_reference(*reference_);
  const auto rl = lossy.run_until_error(1e-4, 2000.0, 2.0);
  ASSERT_TRUE(rc.reached);
  ASSERT_TRUE(rl.reached);
  EXPECT_LE(rc.time, rl.time);
}

TEST_F(DistributedFixture, RelativeErrorDecreasesOverTime) {
  const auto a = assignment(16);
  DistributedRanking sim(*graph_, a, 16, options(Algorithm::kDPR1), pool());
  sim.set_reference(*reference_);
  const auto samples = sim.run(60.0, 4.0);
  ASSERT_GE(samples.size(), 10u);
  EXPECT_GT(samples.front().relative_error, samples.back().relative_error);
  EXPECT_LT(samples.back().relative_error, 0.01);
  // Time axis is monotone and as requested.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].time, samples[i - 1].time);
  }
}

TEST_F(DistributedFixture, SamplesReportOuterStepProgress) {
  const auto a = assignment(8);
  DistributedRanking sim(*graph_, a, 8, options(Algorithm::kDPR1), pool());
  sim.set_reference(*reference_);
  const auto samples = sim.run(20.0, 5.0);
  ASSERT_GE(samples.size(), 2u);
  EXPECT_GT(samples.back().total_outer_steps, samples.front().total_outer_steps);
  EXPECT_EQ(samples.back().total_outer_steps, sim.counters().outer_steps);
}

TEST_F(DistributedFixture, MessageAccountingIsConsistent) {
  const auto a = assignment(8);
  DistributedRanking sim(*graph_, a, 8, options(Algorithm::kDPR1, 0.6), pool());
  sim.set_reference(*reference_);
  (void)sim.run(30.0, 10.0);
  const EngineCounters c = sim.counters();
  EXPECT_GT(c.messages_sent, 0u);
  EXPECT_GT(c.records_sent, c.messages_sent);  // slices carry many records
  EXPECT_LT(c.messages_lost, c.messages_sent);
  const double loss_rate =
      static_cast<double>(c.messages_lost) / static_cast<double>(c.messages_sent);
  EXPECT_NEAR(loss_rate, 0.4, 0.05);
}

TEST_F(DistributedFixture, SingleGroupEqualsCentralizedAfterOneStep) {
  // K=1: no cut edges; the first DPR1 step solves the global system.
  std::vector<std::uint32_t> a(graph_->num_pages(), 0);
  DistributedRanking sim(*graph_, a, 1, options(Algorithm::kDPR1), pool());
  sim.set_reference(*reference_);
  (void)sim.run(10.0, 10.0);
  EXPECT_LT(sim.relative_error_now(), 1e-6);
}

TEST_F(DistributedFixture, EmptyGroupsAreTolerated) {
  // k = 4 but every page lands in groups {0, 1}.
  std::vector<std::uint32_t> a(graph_->num_pages());
  for (graph::PageId p = 0; p < graph_->num_pages(); ++p) a[p] = p % 2;
  DistributedRanking sim(*graph_, a, 4, options(Algorithm::kDPR1), pool());
  sim.set_reference(*reference_);
  EXPECT_EQ(sim.nonempty_groups(), 2u);
  const auto result = sim.run_until_error(1e-4, 500.0, 5.0);
  EXPECT_TRUE(result.reached);
}

TEST_F(DistributedFixture, DeterministicForSeed) {
  const auto a = assignment(8);
  DistributedRanking s1(*graph_, a, 8, options(Algorithm::kDPR2, 0.8), pool());
  s1.set_reference(*reference_);
  DistributedRanking s2(*graph_, a, 8, options(Algorithm::kDPR2, 0.8), pool());
  s2.set_reference(*reference_);
  const auto r1 = s1.run(25.0, 5.0);
  const auto r2 = s2.run(25.0, 5.0);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1[i].relative_error, r2[i].relative_error);
    EXPECT_EQ(r1[i].total_outer_steps, r2[i].total_outer_steps);
  }
}

TEST_F(DistributedFixture, DeliveryLatencyDelaysButDoesNotBreakConvergence) {
  const auto a = assignment(8);
  auto opts = options(Algorithm::kDPR1);
  opts.delivery_latency = 2.0;
  DistributedRanking sim(*graph_, a, 8, opts, pool());
  sim.set_reference(*reference_);
  const auto result = sim.run_until_error(1e-4, 2000.0, 5.0);
  EXPECT_TRUE(result.reached);
}

TEST_F(DistributedFixture, RelativeErrorNowMatchesAFreshSum) {
  // set_reference sums ||reference||_1 once, and each check reads every
  // page's rank where its group holds it; every check must still equal,
  // bit for bit, the error summed from scratch over the gathered ranks.
  // Churn rebuilds the page placement, so the checks continue across a
  // leave and a join.
  const auto a = assignment(8);
  DistributedRanking sim(*graph_, a, 8, options(Algorithm::kDPR2), pool());
  sim.set_reference(*reference_);
  const auto expect_fresh_sum = [&](const std::string& when) {
    EXPECT_EQ(sim.relative_error_now(),
              util::relative_error(sim.global_ranks(), *reference_))
        << when;
  };
  for (const double t : {3.0, 7.0, 15.0}) {
    (void)sim.run(t, 1.0);
    expect_fresh_sum("at t = " + std::to_string(t));
  }
  sim.leave_group(2, 5);
  expect_fresh_sum("after group 2 left");
  (void)sim.run(18.0, 1.0);
  expect_fresh_sum("at t = 18 after the leave");
  sim.join_group(2, 6);
  expect_fresh_sum("after group 2 joined");
  (void)sim.run(21.0, 1.0);
  expect_fresh_sum("at t = 21 after the join");
}

TEST_F(DistributedFixture, RelativeErrorAgainstAnAllZeroReference) {
  // A zero reference norm: 0 while the ranks are zero too, +inf once they
  // move. A later set_reference replaces the cached norm.
  const auto a = assignment(4);
  DistributedRanking sim(*graph_, a, 4, options(Algorithm::kDPR2), pool());
  sim.set_reference(std::vector<double>(graph_->num_pages(), 0.0));
  EXPECT_EQ(sim.relative_error_now(), 0.0);  // R0 = 0
  (void)sim.run(2.0, 1.0);
  EXPECT_TRUE(std::isinf(sim.relative_error_now()));
  sim.set_reference(*reference_);
  EXPECT_EQ(sim.relative_error_now(),
            util::relative_error(sim.global_ranks(), *reference_));
}

TEST_F(DistributedFixture, GlobalRanksAssembleAllPages) {
  const auto a = assignment(8);
  DistributedRanking sim(*graph_, a, 8, options(Algorithm::kDPR1), pool());
  sim.set_reference(*reference_);
  (void)sim.run(10.0, 10.0);
  const auto ranks = sim.global_ranks();
  ASSERT_EQ(ranks.size(), graph_->num_pages());
  for (const double r : ranks) EXPECT_GT(r, 0.0);
}

}  // namespace
}  // namespace p2prank::engine
