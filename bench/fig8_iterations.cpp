// Fig. 8 — "Comparison between different page ranking algorithms": outer
// iterations needed to reach a relative error of 0.01% vs the number of page
// rankers K, for DPR1, DPR2 and CPR (centralized page ranking), with
// p = 1, T1 = T2 = 15 (near-lockstep loops).
//
// Expected shape (paper): DPR1 needs the fewest iterations — even fewer than
// CPR (its inner solves do many sweeps per outer step, so the *outer* count
// is small); DPR2 needs the most; CPR is flat in K; and K barely affects the
// distributed algorithms' convergence.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "csv_out.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "partition/partitioner.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {
constexpr double kAlpha = 0.85;
constexpr double kThreshold = 1e-4;  // the paper's 0.01%
}  // namespace

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv,
                    "usage: fig8_iterations [--pages=30000] [--max-k=10000] [--seed=42] "
                    "[--csv=out.csv]\n");
  const auto max_k = flags.get<std::uint64_t>("max-k", 10000);
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  const auto csv = flags.get<std::string>("csv", "");
  const auto g = bench::experiment_graph(flags, 30000);
  auto& pool = util::ThreadPool::shared();

  std::cout << "fig8: iterations to relative error <= 0.01% (p=1, T1=T2=15)\n"
            << "graph: " << g.num_pages() << " pages, " << g.num_links()
            << " internal links\n\n";

  const auto reference = engine::open_system_reference(g, kAlpha, pool);
  // CPR = the paper's "centralized page ranking": classic closed-system
  // Algorithm 1 with damping c = alpha. It renormalizes rank mass every
  // step, so it contracts at ~c — slower than the leaky open system the
  // distributed algorithms iterate, which is why DPR1 can beat it.
  const auto cpr_iterations =
      engine::algorithm1_iterations_to_error(g, kAlpha, kThreshold, pool);

  std::vector<std::uint32_t> ks{2, 10, 100, 1000};
  if (max_k >= 10000 && g.num_pages() >= 20000) {
    ks.push_back(10000);
  }

  util::Table table({"K (page rankers)", "DPR1 iters", "DPR2 iters", "CPR iters"});
  std::vector<double> dpr1_iters;
  std::vector<double> dpr2_iters;
  for (const auto k : ks) {
    const auto assignment = partition::make_hash_url_partitioner()->partition(g, k);
    double iters[2] = {0.0, 0.0};
    const engine::Algorithm algs[] = {engine::Algorithm::kDPR1,
                                      engine::Algorithm::kDPR2};
    for (int a = 0; a < 2; ++a) {
      engine::EngineOptions opts;
      opts.algorithm = algs[a];
      opts.alpha = kAlpha;
      opts.delivery_probability = 1.0;
      opts.t1 = opts.t2 = 15.0;  // the paper's Fig. 8 wait setting
      opts.seed = seed;
      engine::DistributedRanking sim(g, assignment, k, opts, pool);
      sim.set_reference(reference);
      const auto result = sim.run_until_error(kThreshold, 30000.0, 15.0);
      iters[a] = result.reached ? result.mean_outer_steps : -1.0;
    }
    dpr1_iters.push_back(iters[0]);
    dpr2_iters.push_back(iters[1]);
    table.row()
        .cell(std::uint64_t{k})
        .cell(iters[0], 1)
        .cell(iters[1], 1)
        .cell(std::uint64_t{cpr_iterations});
  }
  table.print(std::cout, "Fig. 8 — iterations to 0.01% relative error");
  bench::maybe_write_csv(table, csv);

  const bool dpr1_fewest =
      dpr1_iters.back() <= dpr2_iters.back() &&
      dpr1_iters.back() <= static_cast<double>(cpr_iterations);
  double d1_min = dpr1_iters[0];
  double d1_max = dpr1_iters[0];
  for (const double v : dpr1_iters) {
    d1_min = std::min(d1_min, v);
    d1_max = std::max(d1_max, v);
  }
  std::cout << "\npaper shape check:\n"
            << "  DPR1 <= DPR2 and DPR1 <= CPR:  " << (dpr1_fewest ? "yes" : "NO")
            << '\n'
            << "  K has little effect on DPR1:   "
            << (d1_max - d1_min <= 0.5 * d1_max ? "yes" : "NO") << " (range "
            << d1_min << ".." << d1_max << ")\n"
            << "  CPR independent of K:          yes (computed once: "
            << cpr_iterations << " iterations)\n";
  return 0;
}
