// Fig. 6 — "Distributed PageRank converges to the ranks of centralized
// PageRank": relative error ||R − R*||/||R*|| over time, K = 1000 rankers,
// DPR1, three experiment configurations:
//   A: p = 1.0, T1 = 0, T2 = 6     (no loss, fast loops)
//   B: p = 0.7, T1 = 0, T2 = 6     (30% loss)
//   C: p = 0.7, T1 = 0, T2 = 15    (30% loss, slow loops)
// Expected shape: all three decay toward 0; B slower than A; C slowest.
//
// The paper runs 1M pages; the default here is 50k so the bench finishes in
// seconds (--pages=N to scale up). Pages are spread over the K rankers by
// URL hash, matching the paper's K=1000 setup (its 100-site dataset cannot
// feed 1000 rankers at site granularity).
#include <iostream>

#include "bench_common.hpp"
#include "csv_out.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "partition/partitioner.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr double kAlpha = 0.85;

struct Config {
  const char* label;
  double p;
  double t1;
  double t2;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv,
                    "usage: fig6_relative_error [--pages=50000] [--k=1000] [--t-end=90] "
                    "[--seed=42] [--csv=out.csv]\n");
  const auto k = flags.get<std::uint32_t>("k", 1000);
  const double t_end = flags.get<double>("t-end", 90.0);
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  const auto csv = flags.get<std::string>("csv", "");
  const auto g = bench::experiment_graph(flags, 50000);

  auto& pool = util::ThreadPool::shared();
  std::cout << "fig6: relative error of DPR1 vs centralized over time\n"
            << "graph: " << g.num_pages() << " pages, " << g.num_links()
            << " internal links; K=" << k << "\n\n";

  const auto assignment = partition::make_hash_url_partitioner()->partition(g, k);
  const auto reference = engine::open_system_reference(g, kAlpha, pool);

  const Config configs[] = {
      {"A", 1.0, 0.0, 6.0},
      {"B", 0.7, 0.0, 6.0},
      {"C", 0.7, 0.0, 15.0},
  };

  std::vector<std::vector<engine::Sample>> series;
  for (const auto& cfg : configs) {
    engine::EngineOptions opts;
    opts.algorithm = engine::Algorithm::kDPR1;
    opts.alpha = kAlpha;
    opts.delivery_probability = cfg.p;
    opts.t1 = cfg.t1;
    opts.t2 = cfg.t2;
    opts.seed = seed;
    engine::DistributedRanking sim(g, assignment, k, opts, pool);
    sim.set_reference(reference);
    series.push_back(sim.run(t_end, 1.0));
  }

  util::Table table({"time", "A: rel err %", "B: rel err %", "C: rel err %"});
  for (std::size_t i = 0; i < series[0].size(); ++i) {
    if (i % 5 != 0 && i + 1 != series[0].size()) continue;  // print every 5th
    table.row()
        .cell(series[0][i].time, 0)
        .cell(series[0][i].relative_error * 100.0, 3)
        .cell(series[1][i].relative_error * 100.0, 3)
        .cell(series[2][i].relative_error * 100.0, 3);
  }
  table.print(std::cout, "Fig. 6 — relative error (%) over time, K=" + std::to_string(k));
  bench::maybe_write_csv(table, csv);

  std::cout << "\npaper shape check:\n"
            << "  decays toward 0:   A " << (series[0].back().relative_error < 0.01 ? "yes" : "NO")
            << ", B " << (series[1].back().relative_error < 0.05 ? "yes" : "NO")
            << ", C " << (series[2].back().relative_error < 0.20 ? "yes" : "NO") << '\n'
            << "  A faster than B:   "
            << (series[0].back().relative_error <= series[1].back().relative_error
                    ? "yes"
                    : "NO")
            << '\n'
            << "  B faster than C:   "
            << (series[1].back().relative_error <= series[2].back().relative_error
                    ? "yes"
                    : "NO")
            << '\n';
  return 0;
}
