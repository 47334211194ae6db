// Scenario: a distributed search engine ranking its crawl.
//
// This is the workload the paper's introduction motivates: the web outgrows
// one machine, so K cooperating page rankers each own a slice of the crawl
// and must agree on page importance without a coordinator.
//
// The example walks the full operational pipeline:
//   1. crawl   — synthesize a realistic 20k-page crawl (power-law sites,
//                90% intra-site links, half the link targets uncrawled);
//   2. shard   — compare partitioning strategies and pick hash-by-site;
//   3. rank    — run DPR1 asynchronously with 30% message loss;
//   4. serve   — show the top-10 pages and verify they match what one big
//                machine would have computed;
//   5. recrawl — demonstrate why hashing matters: a revisited URL routes to
//                the same ranker with no global lookup.
//
// Run:  ./search_engine_ranking [--pages=20000] [--rankers=24] [--loss=0.3]
#include <iostream>
#include <memory>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_stats.hpp"
#include "graph/synthetic_web.hpp"
#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "rank/centralized.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv,
                    "usage: search_engine_ranking [--pages=20000] [--rankers=24] "
                    "[--loss=0.3]\n");
  const auto pages = flags.get<std::uint32_t>("pages", 20000);
  const auto k = flags.get<std::uint32_t>("rankers", 24);
  const double loss = flags.get<double>("loss", 0.3);
  flags.finish();
  auto& pool = util::ThreadPool::shared();

  // --- 1. crawl ---------------------------------------------------------------
  const auto g = graph::generate_synthetic_web(graph::google2002_config(pages, 2026));
  const auto stats = graph::compute_stats(g);
  std::cout << "1. crawl\n";
  graph::print_stats(stats, std::cout);

  // --- 2. shard ---------------------------------------------------------------
  std::cout << "\n2. shard across " << k << " page rankers\n";
  util::Table shard_table({"strategy", "cut links", "cut %", "imbalance"});
  std::unique_ptr<partition::Partitioner> strategies[] = {
      partition::make_random_partitioner(7),
      partition::make_hash_url_partitioner(),
      partition::make_hash_site_partitioner(),
  };
  for (const auto& s : strategies) {
    const auto stats_k =
        partition::compute_partition_stats(g, s->partition(g, k), k);
    shard_table.row()
        .cell(std::string(s->name()))
        .cell(std::uint64_t{stats_k.cut_links})
        .cell(stats_k.cut_fraction() * 100.0, 1)
        .cell(stats_k.imbalance(), 2);
  }
  shard_table.print(std::cout);
  std::cout << "-> hash-site cuts the fewest links; every cut link is a score\n"
               "   record on the wire each exchange round, so we shard by site.\n";
  const auto assignment = partition::make_hash_site_partitioner()->partition(g, k);

  // --- 3. rank ----------------------------------------------------------------
  std::cout << "\n3. rank with DPR1 (" << loss * 100 << "% message loss, "
            << "asynchronous rankers)\n";
  const auto reference = engine::open_system_reference(g, 0.85, pool);
  engine::EngineOptions opts;
  opts.algorithm = engine::Algorithm::kDPR1;
  opts.alpha = 0.85;
  opts.delivery_probability = 1.0 - loss;
  opts.t1 = 0.0;
  opts.t2 = 6.0;
  opts.seed = 11;
  engine::DistributedRanking sim(g, assignment, k, opts, pool);
  sim.set_reference(reference);
  const auto progress = sim.run(80.0, 10.0);
  util::Table conv({"virtual time", "relative error %", "outer steps (total)"});
  for (const auto& s : progress) {
    conv.row()
        .cell(s.time, 0)
        .cell(s.relative_error * 100.0, 3)
        .cell(s.total_outer_steps);
  }
  conv.print(std::cout);
  const auto counts = sim.counters();
  std::cout << "messages: " << counts.messages_sent << " sent, " << counts.messages_lost
            << " lost (loss tolerated by design)\n";

  // --- 4. serve ---------------------------------------------------------------
  std::cout << "\n4. serve: top pages\n";
  const auto ranks = sim.global_ranks();
  const auto top_dist = rank::top_pages(ranks, 10);
  const auto top_ref = rank::top_pages(reference, 10);
  util::Table top({"#", "page (distributed)", "rank", "same as centralized?"});
  for (std::size_t i = 0; i < top_dist.size(); ++i) {
    top.row()
        .cell(static_cast<std::uint64_t>(i + 1))
        .cell(g.url(top_dist[i]))
        .cell(ranks[top_dist[i]], 4)
        .cell(top_dist[i] == top_ref[i] ? "yes" : "no");
  }
  top.print(std::cout);

  // --- 5. recrawl -------------------------------------------------------------
  std::cout << "\n5. recrawl routing (no coordinator needed)\n";
  const auto& partitioner = *strategies[2];
  for (const auto* url : {"site3.edu/page17.html", "site42.edu/page0.html"}) {
    partition::GroupId group = 0;
    if (partitioner.assign_url(url, k, group)) {
      std::cout << "   " << url << " -> ranker " << group
                << " (any crawler computes this locally from the site hash)\n";
    }
  }
  return 0;
}
