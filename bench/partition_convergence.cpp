// End-to-end effect of the partitioning strategy (Section 4.1 meets 4.2):
// the paper evaluates partitioning by cut links and convergence by
// iterations separately; this bench closes the loop and measures, per
// strategy, the wire records actually shipped until the DPR1 system reaches
// the 0.01% threshold — the quantity the capacity model of Section 4.5
// ultimately bills for.
//
// Expected shape: all strategies converge in a similar number of rounds
// (convergence is a global-contraction property), but site-granularity
// ships several times fewer records per round, so its records-to-converge
// total is far lower. That product is the real argument for hash-by-site.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {
constexpr double kAlpha = 0.85;
}

int main(int argc, char** argv) {
  using namespace p2prank;
  const bench::Flags flags(argc, argv, "[--pages=30000] [--k=32] [--seed=42]");
  const auto g = bench::experiment_graph(flags, 30000);
  const auto k = static_cast<std::uint32_t>(flags.get_u64("k", 32));
  auto& pool = util::ThreadPool::shared();

  std::cout << "partition -> convergence traffic (Sections 4.1 + 4.2 + 4.5)\n"
            << "graph: " << g.num_pages() << " pages, " << g.num_links()
            << " internal links; K=" << k << "; threshold 0.01%\n\n";

  const auto reference = engine::open_system_reference(g, kAlpha, pool);

  std::vector<std::unique_ptr<partition::Partitioner>> strategies;
  strategies.push_back(partition::make_random_partitioner(flags.get_u64("seed", 42)));
  strategies.push_back(partition::make_hash_url_partitioner());
  strategies.push_back(partition::make_hash_site_partitioner());
  strategies.push_back(partition::make_balanced_site_partitioner());

  util::Table table({"strategy", "cut links", "rounds (mean)", "records to converge",
                     "bytes @100B/record", "vs hash-url"});
  double url_records = 0.0;
  std::vector<std::pair<std::string, double>> totals;
  for (const auto& strategy : strategies) {
    const auto assignment = strategy->partition(g, k);
    const auto pstats = partition::compute_partition_stats(g, assignment, k);

    engine::EngineOptions opts;
    opts.algorithm = engine::Algorithm::kDPR1;
    opts.alpha = kAlpha;
    opts.t1 = 0.0;
    opts.t2 = 6.0;
    opts.seed = flags.get_u64("seed", 42);
    engine::DistributedRanking sim(g, assignment, k, opts, pool);
    sim.set_reference(reference);
    const auto result = sim.run_until_error(1e-4, 5000.0, 2.0);

    const auto records = static_cast<double>(sim.counters().records_sent);
    if (std::string(strategy->name()) == "hash-url") url_records = records;
    totals.emplace_back(std::string(strategy->name()), records);
    table.row()
        .cell(std::string(strategy->name()))
        .cell(std::uint64_t{pstats.cut_links})
        .cell(result.reached ? result.mean_outer_steps : -1.0, 1)
        .cell(sim.counters().records_sent)
        .cell(util::format_bytes(records * 100.0))
        .cell("");  // filled below once url_records is known
  }

  // Rebuild with ratios (needs the hash-url total).
  util::Table final_table({"strategy", "records to converge", "vs hash-url"});
  for (const auto& [name, records] : totals) {
    final_table.row()
        .cell(name)
        .cell(static_cast<std::uint64_t>(records))
        .cell(url_records > 0.0
                  ? util::format_double(records / url_records, 2) + "x"
                  : "-");
  }
  table.print(std::cout, "Convergence cost by partitioning strategy");
  final_table.print(std::cout, "Traffic ratio summary");

  const double site_total = totals[2].second;
  std::cout << "\nshape check: hash-site total traffic well below hash-url: "
            << (site_total < 0.5 * url_records ? "yes" : "NO") << " ("
            << util::format_double(site_total / url_records, 2) << "x)\n";
  return 0;
}
