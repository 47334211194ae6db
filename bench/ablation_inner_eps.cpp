// Ablation — DPR1's inner-solve tolerance.
//
// DPR1 solves its local system "to convergence" every outer step; DPR2 does
// a single sweep. These are the two extremes of one knob: the inner epsilon.
// This bench sweeps that knob and reports, for each setting, the outer
// iterations (= network exchange rounds, the expensive resource per
// Section 4.5) and the total inner sweeps (= CPU cost).
//
// Expected shape: looser inner tolerance -> more outer rounds but fewer
// total sweeps; the paper's DPR1-vs-DPR2 gap in Fig. 8 is the endpoints of
// this curve. Since an exchange round costs hours at web scale (Table 1)
// while sweeps are local CPU, DPR1's end of the trade is the right one —
// this bench quantifies why.
#include <iostream>

#include "bench_common.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "partition/partitioner.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {
constexpr double kAlpha = 0.85;
constexpr double kThreshold = 1e-4;
}  // namespace

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv,
                    "usage: ablation_inner_eps [--pages=20000] [--k=32] [--seed=42]\n");
  const auto k = flags.get<std::uint32_t>("k", 32);
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  const auto g = bench::experiment_graph(flags, 20000);
  auto& pool = util::ThreadPool::shared();

  std::cout << "ablation: DPR1 inner-solve tolerance (outer rounds vs sweeps)\n"
            << "graph: " << g.num_pages() << " pages; K=" << k
            << "; target rel err 0.01%\n\n";

  const auto assignment = partition::make_hash_url_partitioner()->partition(g, k);
  const auto reference = engine::open_system_reference(g, kAlpha, pool);

  util::Table table({"inner mode", "outer rounds (mean)", "total inner sweeps",
                     "sweeps/round", "virtual time"});

  struct Setting {
    const char* label;
    bool dpr2;
    double inner_eps;
  };
  const Setting settings[] = {
      {"DPR2 (1 sweep)", true, 0.0},
      {"DPR1 eps=1e-2", false, 1e-2},
      {"DPR1 eps=1e-4", false, 1e-4},
      {"DPR1 eps=1e-8", false, 1e-8},
      {"DPR1 eps=1e-12", false, 1e-12},
  };

  double dpr2_rounds = 0.0;
  double tightest_rounds = 0.0;
  for (const auto& s : settings) {
    engine::EngineOptions opts;
    opts.algorithm = s.dpr2 ? engine::Algorithm::kDPR2 : engine::Algorithm::kDPR1;
    opts.alpha = kAlpha;
    if (!s.dpr2) opts.inner_epsilon = s.inner_eps;  // DPR2 never reads it
    opts.t1 = opts.t2 = 15.0;
    opts.seed = seed;
    engine::DistributedRanking sim(g, assignment, k, opts, pool);
    sim.set_reference(reference);
    const auto result = sim.run_until_error(kThreshold, 30000.0, 15.0);
    const double rounds = result.mean_outer_steps;
    if (s.dpr2) dpr2_rounds = rounds;
    tightest_rounds = rounds;
    table.row()
        .cell(s.label)
        .cell(rounds, 1)
        .cell(sim.total_inner_sweeps())
        .cell(static_cast<double>(sim.total_inner_sweeps()) /
                  static_cast<double>(sim.counters().outer_steps),
              1)
        .cell(result.time, 0);
  }
  table.print(std::cout, "Inner tolerance sweep (DPR2 -> DPR1)");

  std::cout << "\nshape check: tighter inner solve -> fewer exchange rounds: "
            << (tightest_rounds < dpr2_rounds ? "yes" : "NO") << " ("
            << tightest_rounds << " vs " << dpr2_rounds << ")\n";
  return 0;
}
