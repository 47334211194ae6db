// Tests for distributed termination detection and rank checkpointing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "engine/checkpoint.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partitioner.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"

namespace p2prank::engine {
namespace {

constexpr double kAlpha = 0.85;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

class TerminationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::WebGraph(
        graph::generate_synthetic_web(graph::google2002_config(4000, 61)));
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

graph::WebGraph* TerminationFixture::graph_ = nullptr;
std::vector<double>* TerminationFixture::reference_ = nullptr;
std::vector<std::uint32_t>* TerminationFixture::assignment_ = nullptr;

EngineOptions opts_with_detection(double eps) {
  EngineOptions o;
  o.alpha = kAlpha;
  o.t1 = o.t2 = 1.0;
  o.seed = 13;
  o.stability_epsilon = eps;
  return o;
}

TEST_F(TerminationFixture, DisabledByDefault) {
  DistributedRanking sim(*graph_, *assignment_, 8, opts_with_detection(0.0), pool());
  sim.set_reference(*reference_);
  (void)sim.run(60.0, 60.0);
  EXPECT_FALSE(sim.termination_detected());
  EXPECT_EQ(sim.counters().status_messages, 0u);
}

TEST_F(TerminationFixture, DetectsConvergence) {
  DistributedRanking sim(*graph_, *assignment_, 8, opts_with_detection(1e-9), pool());
  sim.set_reference(*reference_);
  (void)sim.run(120.0, 30.0);
  ASSERT_TRUE(sim.termination_detected());
  EXPECT_GT(sim.termination_time(), 0.0);
  EXPECT_LE(sim.termination_time(), 120.0);
  EXPECT_GT(sim.counters().status_messages, 0u);
}

TEST_F(TerminationFixture, DetectionImpliesSmallError) {
  // When the detector fires with a tight epsilon, the actual relative error
  // must already be small — run to exactly the detection time and check.
  DistributedRanking sim(*graph_, *assignment_, 8, opts_with_detection(1e-10),
                         pool());
  sim.set_reference(*reference_);
  double detected_at = -1.0;
  for (double t = 5.0; t <= 200.0; t += 5.0) {
    (void)sim.run(t, 5.0);
    if (sim.termination_detected()) {
      detected_at = sim.termination_time();
      break;
    }
  }
  ASSERT_GT(detected_at, 0.0);
  EXPECT_LT(sim.relative_error_now(), 1e-4);
}

TEST_F(TerminationFixture, LooserEpsilonFiresEarlier) {
  DistributedRanking loose(*graph_, *assignment_, 8, opts_with_detection(1e-3),
                           pool());
  loose.set_reference(*reference_);
  (void)loose.run(200.0, 50.0);
  DistributedRanking tight(*graph_, *assignment_, 8, opts_with_detection(1e-12),
                           pool());
  tight.set_reference(*reference_);
  (void)tight.run(200.0, 50.0);
  ASSERT_TRUE(loose.termination_detected());
  ASSERT_TRUE(tight.termination_detected());
  EXPECT_LE(loose.termination_time(), tight.termination_time());
}

TEST_F(TerminationFixture, StatusMessagesTrackSteps) {
  DistributedRanking sim(*graph_, *assignment_, 8, opts_with_detection(1e-9), pool());
  sim.set_reference(*reference_);
  (void)sim.run(30.0, 30.0);
  EXPECT_EQ(sim.counters().status_messages, sim.counters().outer_steps);
}

// ------------------------------------------------------------- checkpointing

TEST(Checkpoint, RoundTripsExactly) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(500, 3));
  std::vector<double> ranks(g.num_pages());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    ranks[i] = 0.1 + static_cast<double>(i) * 1e-5;
  }
  std::stringstream buffer;
  save_ranks(g, ranks, buffer);
  const auto loaded = load_ranks(g, buffer);
  EXPECT_EQ(loaded.matched, g.num_pages());
  EXPECT_EQ(loaded.skipped, 0u);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    ASSERT_DOUBLE_EQ(loaded.ranks[i], ranks[i]) << i;
  }
}

TEST(Checkpoint, SaveValidatesSize) {
  const auto g = test::two_cycle();
  const std::vector<double> wrong(3, 0.0);
  std::stringstream buffer;
  EXPECT_THROW(save_ranks(g, wrong, buffer), std::invalid_argument);
}

TEST(Checkpoint, LoadAgainstDifferentGraphMatchesByUrl) {
  const auto g1 = test::two_cycle();
  const std::vector<double> ranks{0.7, 0.3};
  std::stringstream buffer;
  save_ranks(g1, ranks, buffer);

  // New crawl: one old page gone, one new page added.
  graph::GraphBuilder b;
  b.add_page("s.edu/a", "s.edu");        // survives
  b.add_page("s.edu/brand-new", "s.edu");
  const auto g2 = std::move(b).build();
  const auto loaded = load_ranks(g2, buffer);
  EXPECT_EQ(loaded.matched, 1u);
  EXPECT_EQ(loaded.skipped, 1u);  // s.edu/b no longer exists
  EXPECT_DOUBLE_EQ(loaded.ranks[*g2.find("s.edu/a")], 0.7);
  EXPECT_DOUBLE_EQ(loaded.ranks[*g2.find("s.edu/brand-new")], 0.0);
}

TEST(Checkpoint, RejectsMalformedLines) {
  const auto g = test::two_cycle();
  std::stringstream bad("s.edu/a notanumber\n");
  EXPECT_THROW((void)load_ranks(g, bad), std::runtime_error);
  // save_ranks writes each URL once. A repeat would silently win over the
  // first line, and here it even satisfies the header's count while
  // leaving s.edu/b at 0.
  std::stringstream repeated(
      "# p2prank checkpoint v1: 2 pages\ns.edu/a 0.5\ns.edu/a 0.25\n");
  try {
    (void)load_ranks(g, repeated);
    FAIL() << "repeated url accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, CommentsIgnored) {
  const auto g = test::two_cycle();
  std::stringstream in("# header\ns.edu/a 0.5\n");
  const auto loaded = load_ranks(g, in);
  EXPECT_EQ(loaded.matched, 1u);
}

TEST(Checkpoint, TruncatedCheckpointRejected) {
  // A file cut off mid-write (crash during save) must be rejected, not
  // silently warm-start half the crawl from zero: the v1 header declares
  // the entry count and load_ranks holds it to account.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(300, 5));
  std::vector<double> ranks(g.num_pages(), 0.25);
  std::stringstream buffer;
  save_ranks(g, ranks, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);                   // cut mid-file...
  text.resize(text.find_last_of('\n') + 1);       // ...at a line boundary
  std::stringstream truncated(text);
  try {
    (void)load_ranks(g, truncated);
    FAIL() << "truncated checkpoint accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, AtomicSaveLeavesNoTempFileBehind) {
  // save_ranks_file writes to `path + ".tmp"` and renames, so a reader can
  // never observe a half-written checkpoint at `path`. After a successful
  // save the temp file must be gone and the target complete.
  const auto g = test::two_cycle();
  const std::vector<double> ranks = {0.5, 0.75};
  const std::string path = ::testing::TempDir() + "/p2prank_atomic.ckpt";
  save_ranks_file(g, ranks, path);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file survived the rename";
  const auto loaded = load_ranks_file(g, path);
  EXPECT_EQ(loaded.matched, 2u);
  EXPECT_DOUBLE_EQ(loaded.ranks[0], 0.5);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileOnDiskRejectedByLoader) {
  // Regression for the crash-mid-write hole the atomic save closes: if a
  // truncated file somehow lands at the checkpoint path anyway (pre-fix
  // save, copy cut short), load_ranks_file must refuse it rather than
  // warm-start half the crawl from zero.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(300, 5));
  std::vector<double> ranks(g.num_pages(), 0.25);
  std::stringstream buffer;
  save_ranks(g, ranks, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  text.resize(text.find_last_of('\n') + 1);
  const std::string path = ::testing::TempDir() + "/p2prank_truncated.ckpt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  try {
    (void)load_ranks_file(g, path);
    FAIL() << "truncated checkpoint file accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptValuesRejected) {
  const auto g = test::two_cycle();
  std::stringstream nan_rank("s.edu/a nan\n");
  EXPECT_THROW((void)load_ranks(g, nan_rank), std::runtime_error);
  std::stringstream inf_rank("s.edu/a inf\n");
  EXPECT_THROW((void)load_ranks(g, inf_rank), std::runtime_error);
  std::stringstream negative("s.edu/a -0.5\n");
  EXPECT_THROW((void)load_ranks(g, negative), std::runtime_error);
  std::stringstream trailing("s.edu/a 0.5 garbage\n");
  EXPECT_THROW((void)load_ranks(g, trailing), std::runtime_error);
}

TEST(Checkpoint, CrashThenRestoreFromFileResumesConvergence) {
  // The full recovery story under faults: converge, checkpoint to a file,
  // crash two groups, restore from the file, and converge again — with the
  // restore cutting out the re-rank from scratch.
  util::ThreadPool local_pool(2);
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 23));
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, 4);
  const auto reference = open_system_reference(g, kAlpha, local_pool);

  EngineOptions opts;
  opts.t1 = opts.t2 = 1.0;
  opts.seed = 29;
  opts.delivery_probability = 0.9;  // restore works under message loss too
  DistributedRanking sim(g, assignment, 4, opts, local_pool);
  sim.set_reference(reference);
  ASSERT_TRUE(sim.run_until_error(1e-6, 2000.0, 2.0).reached);

  const std::string path = ::testing::TempDir() + "/p2prank_crash.ckpt";
  save_ranks_file(g, sim.global_ranks(), path);

  sim.crash_group(0);
  sim.crash_group(3);
  ASSERT_GT(sim.relative_error_now(), 1e-3);
  const auto loaded = load_ranks_file(g, path);
  ASSERT_EQ(loaded.matched, g.num_pages());
  sim.warm_start(loaded.ranks);
  EXPECT_LT(sim.relative_error_now(), 1e-5);
  // And the restored system still makes progress, not just holds steady.
  EXPECT_TRUE(sim.run_until_error(1e-7, 2000.0, 2.0).reached);
}

TEST(Checkpoint, FileRoundTripAndWarmRestartPipeline) {
  util::ThreadPool local_pool(2);
  const auto g = graph::generate_synthetic_web(graph::google2002_config(2000, 19));
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, 4);
  const auto reference = open_system_reference(g, kAlpha, local_pool);

  EngineOptions opts;
  opts.t1 = opts.t2 = 1.0;
  opts.seed = 21;
  DistributedRanking sim(g, assignment, 4, opts, local_pool);
  sim.set_reference(reference);
  ASSERT_TRUE(sim.run_until_error(1e-6, 1000.0, 2.0).reached);

  const std::string path = ::testing::TempDir() + "/p2prank_ranks.ckpt";
  save_ranks_file(g, sim.global_ranks(), path);
  const auto loaded = load_ranks_file(g, path);
  EXPECT_EQ(loaded.matched, g.num_pages());

  // A restarted engine warm-started from the checkpoint is converged.
  DistributedRanking restarted(g, assignment, 4, opts, local_pool);
  restarted.set_reference(reference);
  restarted.warm_start(loaded.ranks);
  EXPECT_LT(restarted.relative_error_now(), 1e-5);
}

}  // namespace
}  // namespace p2prank::engine
