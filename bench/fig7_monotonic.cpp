// Fig. 7 — "Rank sequence generated by DPR1 is monotonic": average rank over
// time for K = 100 rankers under the paper's three configurations:
//   A: p = 1.0, T1 = 0, T2 = 6
//   B: p = 0.7, T1 = 0, T2 = 6
//   C: p = 0.7, T1 = 0, T2 = 15
// Expected shape: every curve is non-decreasing (Theorem 4.1) and plateaus
// well below 1 (~0.3 for the paper's dataset) because roughly half of all
// link mass points outside the crawl and leaks out of the open system.
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
                    "usage: fig7_monotonic [--pages=50000] [--k=100] [--t-end=90] "
                    "[--seed=42] [--csv=out.csv]\n");
  const auto k = flags.get<std::uint32_t>("k", 100);
  const double t_end = flags.get<double>("t-end", 90.0);
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  const auto csv = flags.get<std::string>("csv", "");
  const auto g = bench::experiment_graph(flags, 50000);

  auto& pool = util::ThreadPool::shared();
  std::cout << "fig7: DPR1 average rank over time (monotonicity), K=" << k << "\n\n";

  const auto assignment = partition::make_hash_url_partitioner()->partition(g, k);
  const auto reference = engine::open_system_reference(g, kAlpha, pool);
  double ref_avg = 0.0;
  for (const double r : reference) ref_avg += r;
  ref_avg /= static_cast<double>(reference.size());

  const Config configs[] = {
      {"A", 1.0, 0.0, 6.0},
      {"B", 0.7, 0.0, 6.0},
      {"C", 0.7, 0.0, 15.0},
  };

  std::vector<std::vector<engine::Sample>> series;
  bool all_monotone = true;
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
    auto samples = sim.run(t_end, 1.0);
    for (const auto& s : samples) {
      if (s.min_rank_delta < -1e-12) all_monotone = false;
    }
    series.push_back(std::move(samples));
  }

  util::Table table({"time", "A: avg rank", "B: avg rank", "C: avg rank"});
  for (std::size_t i = 0; i < series[0].size(); ++i) {
    if (i % 5 != 0 && i + 1 != series[0].size()) continue;
    table.row()
        .cell(series[0][i].time, 0)
        .cell(series[0][i].average_rank, 4)
        .cell(series[1][i].average_rank, 4)
        .cell(series[2][i].average_rank, 4);
  }
  table.print(std::cout, "Fig. 7 — average rank over time, K=" + std::to_string(k));
  bench::maybe_write_csv(table, csv);

  std::cout << "\ncentralized average rank (plateau target): " << ref_avg << '\n'
            << "paper shape check:\n"
            << "  every per-page sequence monotone non-decreasing: "
            << (all_monotone ? "yes" : "NO") << '\n'
            << "  plateau well below 1 (open-system leak):         "
            << (ref_avg < 0.5 ? "yes" : "NO") << '\n';
  return 0;
}
