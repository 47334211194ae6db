// Section 4.1 — web page partitioning strategies.
//
// "Because number of inner-site links overcomes that of inter-site ones ...
// divide at site-granularity instead of page-granularity can reduce
// communication overhead greatly."
//
// For each strategy and K this prints the cut links (score records that must
// cross the network every exchange), the cut fraction, and the load balance.
// Expected shape: hash-site cuts <= ~10% of links at any K (bounded by the
// inter-site fraction) while random/hash-url approach (1 - 1/K); the price
// of site granularity is worse balance, which balanced-site (LPT ablation)
// recovers.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "graph/graph_stats.hpp"
#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv, "usage: partition_cut [--pages=50000] [--seed=42]\n");
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  const auto g = bench::experiment_graph(flags, 50000);

  const auto gstats = graph::compute_stats(g);
  std::cout << "partition: cut links by strategy (Section 4.1)\n"
            << "graph: " << g.num_pages() << " pages, " << g.num_links()
            << " internal links, intra-site fraction "
            << util::format_double(gstats.intra_site_fraction(), 3) << "\n\n";

  std::vector<std::unique_ptr<partition::Partitioner>> strategies;
  strategies.push_back(partition::make_random_partitioner(seed));
  strategies.push_back(partition::make_hash_url_partitioner());
  strategies.push_back(partition::make_hash_site_partitioner());
  strategies.push_back(partition::make_balanced_site_partitioner());

  util::Table table({"strategy", "K", "cut links", "cut %", "imbalance",
                     "recrawl-stable"});
  for (const std::uint32_t k : {4u, 16u, 64u, 256u}) {
    for (const auto& strategy : strategies) {
      const auto assignment = strategy->partition(g, k);
      const auto stats = partition::compute_partition_stats(g, assignment, k);
      partition::GroupId probe = 0;
      const bool stable = strategy->assign_url("probe.edu/x", k, probe);
      table.row()
          .cell(std::string(strategy->name()))
          .cell(std::uint64_t{k})
          .cell(std::uint64_t{stats.cut_links})
          .cell(stats.cut_fraction() * 100.0, 1)
          .cell(stats.imbalance(), 2)
          .cell(stable ? "yes" : "no");
    }
  }
  table.print(std::cout, "Cut links & balance by partitioning strategy");

  // Shape summary at K = 64.
  const auto site64 = partition::compute_partition_stats(
      g, partition::make_hash_site_partitioner()->partition(g, 64), 64);
  const auto url64 = partition::compute_partition_stats(
      g, partition::make_hash_url_partitioner()->partition(g, 64), 64);
  std::cout << "\npaper shape check (K=64):\n"
            << "  site-hash cut far below url-hash cut: "
            << (static_cast<double>(site64.cut_links) <
                        0.25 * static_cast<double>(url64.cut_links)
                    ? "yes"
                    : "NO")
            << " (" << site64.cut_links << " vs " << url64.cut_links << ")\n"
            << "  site-hash cut bounded by inter-site fraction: "
            << (site64.cut_fraction() <= 1.0 - gstats.intra_site_fraction() + 0.02
                    ? "yes"
                    : "NO")
            << '\n';
  return 0;
}
