// End-to-end pipeline tests: generate crawl -> partition -> place rankers on
// an overlay -> run distributed ranking -> ship Y records over a simulated
// transport -> compare with the centralized reference.
#include <gtest/gtest.h>

#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_stats.hpp"
#include "graph/synthetic_web.hpp"
#include "overlay/pastry.hpp"
#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "rank/centralized.hpp"
#include "transport/exchange.hpp"
#include "util/thread_pool.hpp"

namespace p2prank {
namespace {

constexpr double kAlpha = 0.85;

util::ThreadPool& pool() {
  static util::ThreadPool p(4);
  return p;
}

TEST(Integration, FullPipelineSitePartition) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(8000, 101));
  const std::uint32_t k = 16;
  const auto assignment = partition::make_hash_site_partitioner()->partition(g, k);

  const auto reference = engine::open_system_reference(g, kAlpha, pool());

  engine::EngineOptions opts;
  opts.algorithm = engine::Algorithm::kDPR1;
  opts.alpha = kAlpha;
  opts.t1 = 0.0;
  opts.t2 = 6.0;
  opts.seed = 1;
  engine::DistributedRanking sim(g, assignment, k, opts, pool());
  sim.set_reference(reference);
  const auto result = sim.run_until_error(1e-4, 600.0, 2.0);
  EXPECT_TRUE(result.reached);

  // Site partitioning should make traffic sparse: records per step far
  // below the total link count.
  const auto pstats = partition::compute_partition_stats(g, assignment, k);
  EXPECT_LT(pstats.cut_fraction(), 0.2);
}

TEST(Integration, DistributedAgreesWithCentralizedTopPages) {
  // The ranking *order* matters for search: top pages by distributed ranks
  // must match the centralized reference's top pages.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(5000, 7));
  const std::uint32_t k = 8;
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, k);
  const auto reference = engine::open_system_reference(g, kAlpha, pool());

  engine::EngineOptions opts;
  opts.alpha = kAlpha;
  opts.seed = 5;
  opts.t1 = opts.t2 = 1.0;
  engine::DistributedRanking sim(g, assignment, k, opts, pool());
  sim.set_reference(reference);
  ASSERT_TRUE(sim.run_until_error(1e-6, 2000.0, 5.0).reached);

  const auto top_dist = rank::top_pages(sim.global_ranks(), 20);
  const auto top_ref = rank::top_pages(reference, 20);
  EXPECT_EQ(top_dist, top_ref);
}

TEST(Integration, RecordsSentMatchCutLinkAccounting) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 13));
  const std::uint32_t k = 8;
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, k);
  const auto pstats = partition::compute_partition_stats(g, assignment, k);
  const auto reference = engine::open_system_reference(g, kAlpha, pool());

  engine::EngineOptions opts;
  opts.alpha = kAlpha;
  opts.seed = 2;
  opts.t1 = opts.t2 = 1.0;
  engine::DistributedRanking sim(g, assignment, k, opts, pool());
  sim.set_reference(reference);
  (void)sim.run(10.0, 10.0);

  // Every outer step of a group ships its cut edges once; total records
  // sent must be a multiple-ish of the cut-link count (groups step at
  // slightly different rates, so bound it instead of equality).
  EXPECT_GE(sim.counters().records_sent, pstats.cut_links);
  const double per_step =
      static_cast<double>(sim.counters().records_sent) / sim.mean_outer_steps();
  EXPECT_NEAR(per_step, static_cast<double>(pstats.cut_links),
              0.2 * static_cast<double>(pstats.cut_links));
}

TEST(Integration, ExchangeDemandFromPartitionDeliversOverOverlay) {
  // Build the actual per-pair record demand of one exchange round from the
  // partition's cut edges and push it through indirect transmission.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(4000, 19));
  const std::uint32_t k = 32;
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, k);

  transport::ExchangeDemand demand(k);
  for (graph::PageId u = 0; u < g.num_pages(); ++u) {
    for (const graph::PageId v : g.out_links(u)) {
      if (assignment[u] != assignment[v]) {
        demand.add(assignment[u], assignment[v], 1);
      }
    }
  }
  const auto pstats = partition::compute_partition_stats(g, assignment, k);
  EXPECT_EQ(demand.total_records(), pstats.cut_links);

  overlay::PastryConfig pcfg;
  pcfg.num_nodes = k;
  pcfg.seed = 3;
  const overlay::PastryOverlay o(pcfg);
  const auto indirect = transport::run_indirect_exchange(o, demand, {});
  EXPECT_EQ(indirect.records_delivered, demand.total_records());
  const auto direct = transport::run_direct_exchange(o, demand, {});
  EXPECT_EQ(direct.records_delivered, demand.total_records());
  // At k=32 the message advantage of indirect should already show.
  EXPECT_LT(indirect.data_messages, direct.total_messages());
}

TEST(Integration, OpenSystemAverageRankReflectsExternalLeak) {
  // The Fig. 7 plateau: with ~47% of links leaving the crawl, the converged
  // average rank sits well below the closed-system value of ~1.
  const auto g = graph::generate_synthetic_web(graph::google2002_config(8000, 23));
  const auto reference = engine::open_system_reference(g, kAlpha, pool());
  double avg = 0.0;
  for (const double r : reference) avg += r;
  avg /= static_cast<double>(reference.size());
  EXPECT_GT(avg, 0.15);
  EXPECT_LT(avg, 0.45);  // paper's dataset converges to ~0.3
}

TEST(Integration, GraphStatsSurviveRoundTripThroughEngine) {
  const auto g = graph::generate_synthetic_web(graph::google2002_config(3000, 29));
  const auto stats = graph::compute_stats(g);
  EXPECT_EQ(stats.pages, g.num_pages());
  EXPECT_EQ(stats.internal_links, g.num_links());
  const auto reference = engine::open_system_reference(g, kAlpha, pool());
  EXPECT_EQ(reference.size(), stats.pages);
}

}  // namespace
}  // namespace p2prank
