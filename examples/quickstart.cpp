// Quickstart: the p2prank API in one file.
//
// Builds a ten-page crawl by hand, ranks it three ways —
//   1. classic centralized PageRank (Algorithm 1),
//   2. the open-system variant (Section 3),
//   3. fully distributed DPR1 over 3 page rankers (Section 4) —
// and shows that (3) converges to (2).
//
// Run:  ./quickstart
#include <iostream>
#include <vector>

#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/graph_builder.hpp"
#include "partition/partitioner.hpp"
#include "rank/centralized.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace p2prank;

  // --- 1. Build a crawl ------------------------------------------------------
  // Three sites; "alpha.edu/home" is the popular hub everyone links to.
  // One link points at a page the crawler never fetched (external): its
  // rank share will leave the open system.
  graph::GraphBuilder builder;
  const auto home = builder.add_page("alpha.edu/home");
  const auto docs = builder.add_page("alpha.edu/docs");
  const auto blog = builder.add_page("alpha.edu/blog");
  const auto b1 = builder.add_page("beta.edu/index");
  const auto b2 = builder.add_page("beta.edu/paper");
  const auto c1 = builder.add_page("gamma.edu/index");
  const auto c2 = builder.add_page("gamma.edu/lab");
  const auto c3 = builder.add_page("gamma.edu/people");

  builder.add_link(docs, home);
  builder.add_link(blog, home);
  builder.add_link(home, docs);
  builder.add_link(b1, home);
  builder.add_link(b1, b2);
  builder.add_link(b2, home);
  builder.add_link(c1, home);
  builder.add_link(c1, c2);
  builder.add_link(c2, c3);
  builder.add_link(c3, c1);
  builder.add_external_link(blog);  // -> somewhere uncrawled

  const auto g = std::move(builder).build();
  std::cout << "crawl: " << g.num_pages() << " pages on " << g.num_sites()
            << " sites, " << g.num_links() << " internal + "
            << g.num_external_links() << " external links\n\n";

  auto& pool = util::ThreadPool::shared();

  // --- 2. Classic centralized PageRank (Algorithm 1) ------------------------
  rank::CentralizedOptions copts;
  copts.damping = 0.85;
  const auto classic = rank::centralized_pagerank(g, copts, pool);

  // --- 3. Open-system PageRank, computed centrally (Section 3) --------------
  const auto open = engine::open_system_reference(g, /*alpha=*/0.85, pool);

  // --- 4. Distributed: 3 page rankers running DPR1 (Section 4) --------------
  // Partition at site granularity (the paper's recommendation). With only 3
  // sites the balanced variant guarantees one site per ranker; at real
  // scale you would use make_hash_site_partitioner() for re-crawl stability.
  const std::uint32_t k = 3;
  const auto assignment =
      partition::make_balanced_site_partitioner()->partition(g, k);

  engine::EngineOptions opts;
  opts.algorithm = engine::Algorithm::kDPR1;
  opts.alpha = 0.85;
  opts.t1 = 0.0;
  opts.t2 = 2.0;  // mean think-time between loop steps
  opts.seed = 1;
  engine::DistributedRanking sim(g, assignment, k, opts, pool);
  sim.set_reference(open);
  const auto result = sim.run_until_error(/*threshold=*/1e-8, /*max_time=*/500.0);
  const auto distributed = sim.global_ranks();

  // --- 5. Compare -------------------------------------------------------------
  util::Table table({"page", "ranker", "classic (sums to 1)", "open-system",
                     "distributed DPR1"});
  for (graph::PageId p = 0; p < g.num_pages(); ++p) {
    table.row()
        .cell(g.url(p))
        .cell(std::uint64_t{assignment[p]})
        .cell(classic.ranks[p], 4)
        .cell(open[p], 4)
        .cell(distributed[p], 4);
  }
  table.print(std::cout, "PageRank three ways");

  std::cout << "\ndistributed vs centralized open-system relative error: "
            << sim.relative_error_now() << '\n'
            << "outer rounds per ranker (mean): " << result.mean_outer_steps << '\n'
            << "messages exchanged: " << result.messages_sent << " carrying "
            << result.records_sent << " <from,to,score> records\n\n";

  const auto top = rank::top_pages(open, 3);
  std::cout << "top pages (open-system): ";
  for (const auto p : top) std::cout << g.url(p) << "  ";
  std::cout << "\n(the hub everyone links to wins)\n";
  return 0;
}
