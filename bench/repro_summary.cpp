// One-shot replication summary: re-verifies every claim of the paper at a
// small scale and prints a PASS/FAIL table. This is the fast end-to-end
// sanity gate; the dedicated fig*/table*/ablation* binaries produce the
// full series.
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cost/capacity_model.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "overlay/pastry.hpp"
#include "partition/partition_stats.hpp"
#include "partition/partitioner.hpp"
#include "transport/exchange.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr double kAlpha = 0.85;

struct Claim {
  std::string where;
  std::string statement;
  std::function<bool()> check;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv, "usage: repro_summary [--pages=8000] [--seed=42]\n");
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  const auto g = bench::experiment_graph(flags, 8000);
  auto& pool = util::ThreadPool::shared();

  std::cout << "replication summary: every paper claim on a "
            << g.num_pages() << "-page crawl\n\n";

  const auto reference = engine::open_system_reference(g, kAlpha, pool);
  const auto url_assign = partition::make_hash_url_partitioner()->partition(g, 16);
  const auto site_assign = partition::make_hash_site_partitioner()->partition(g, 16);

  auto run_engine = [&](engine::Algorithm alg, double p, double t1, double t2,
                        std::span<const std::uint32_t> assignment) {
    engine::EngineOptions opts;
    opts.algorithm = alg;
    opts.alpha = kAlpha;
    opts.delivery_probability = p;
    opts.t1 = t1;
    opts.t2 = t2;
    opts.seed = seed;
    engine::DistributedRanking sim(g, assignment, 16, opts, pool);
    sim.set_reference(reference);
    return sim.run_until_error(1e-4, 5000.0, 5.0);
  };

  std::vector<Claim> claims;

  claims.push_back({"§3", "open-system iteration converges (||A|| <= alpha < 1)",
                    [&] {
                      const auto m = rank::LinkMatrix::from_graph(g, kAlpha);
                      return m.contraction_norm() <= kAlpha + 1e-12;
                    }});

  claims.push_back({"§4.3/Fig6", "DPR1 converges to the centralized ranks", [&] {
                      return run_engine(engine::Algorithm::kDPR1, 1.0, 0.0, 6.0,
                                        url_assign)
                          .reached;
                    }});

  claims.push_back({"§4.3/Fig6", "convergence survives 30% message loss", [&] {
                      return run_engine(engine::Algorithm::kDPR1, 0.7, 0.0, 6.0,
                                        url_assign)
                          .reached;
                    }});

  claims.push_back({"§4.3", "DPR2 converges too (one sweep per loop)", [&] {
                      return run_engine(engine::Algorithm::kDPR2, 1.0, 0.0, 6.0,
                                        url_assign)
                          .reached;
                    }});

  claims.push_back(
      {"Thm 4.1/4.2 (Fig 7)", "rank sequence monotone, bounded by R*", [&] {
         engine::EngineOptions opts;
         opts.alpha = kAlpha;
         opts.t1 = 0.0;
         opts.t2 = 6.0;
         opts.seed = 11;
         engine::DistributedRanking sim(g, url_assign, 16, opts, pool);
         sim.set_reference(reference);
         for (const auto& s : sim.run(40.0, 2.0)) {
           if (s.min_rank_delta < -1e-12) return false;
         }
         const auto ranks = sim.global_ranks();
         for (std::size_t i = 0; i < ranks.size(); ++i) {
           if (ranks[i] > reference[i] + 1e-9) return false;
         }
         return true;
       }});

  claims.push_back({"Fig 8", "DPR1 outer rounds < DPR2 rounds and < CPR iterations",
                    [&] {
                      const auto r1 = run_engine(engine::Algorithm::kDPR1, 1.0,
                                                 15.0, 15.0, url_assign);
                      const auto r2 = run_engine(engine::Algorithm::kDPR2, 1.0,
                                                 15.0, 15.0, url_assign);
                      const auto cpr = engine::algorithm1_iterations_to_error(
                          g, kAlpha, 1e-4, pool);
                      return r1.reached && r2.reached &&
                             r1.mean_outer_steps < r2.mean_outer_steps &&
                             r1.mean_outer_steps < static_cast<double>(cpr);
                    }});

  claims.push_back({"§4.1", "site-hash cuts far fewer links than url-hash", [&] {
                      const auto site = partition::compute_partition_stats(
                          g, site_assign, 16);
                      const auto url =
                          partition::compute_partition_stats(g, url_assign, 16);
                      return site.cut_links * 4 < url.cut_links;
                    }});

  claims.push_back({"§4.1", "hash partitions are re-crawl stable", [&] {
                      const auto p = partition::make_hash_site_partitioner();
                      partition::GroupId grp = 0;
                      if (!p->assign_url(g.url(7), 16, grp)) return false;
                      return grp == site_assign[7];
                    }});

  claims.push_back({"§4.4", "indirect transmission: O(N) messages vs O(N^2)", [&] {
                      overlay::PastryConfig cfg;
                      cfg.num_nodes = 128;
                      cfg.seed = 5;
                      const overlay::PastryOverlay o(cfg);
                      const auto d = transport::ExchangeDemand::all_pairs(128, 1);
                      const auto dt = transport::run_direct_exchange(o, d, {});
                      const auto it = transport::run_indirect_exchange(o, d, {});
                      return it.records_delivered == d.total_records() &&
                             it.data_messages * 8 < dt.total_messages();
                    }});

  claims.push_back({"§4.5", "Pastry hops ~ 2.5 at N=1000 (paper's h)", [&] {
                      overlay::PastryConfig cfg;
                      cfg.num_nodes = 1000;
                      cfg.seed = 5;
                      const overlay::PastryOverlay o(cfg);
                      const auto probe = overlay::probe_overlay(o, 1000, 3);
                      return probe.mean_hops > 1.8 && probe.mean_hops < 3.2;
                    }});

  claims.push_back({"Table 1", "capacity model matches the paper exactly", [&] {
                      const auto rows = cost::table1();
                      return rows[0].min_interval_seconds == 7500.0 &&
                             rows[1].min_interval_seconds == 10500.0 &&
                             rows[2].min_interval_seconds == 12000.0 &&
                             rows[0].min_node_bandwidth == 100e3 &&
                             rows[1].min_node_bandwidth == 10e3 &&
                             rows[2].min_node_bandwidth == 1e3;
                    }});

  claims.push_back({"Fig 7", "average rank plateaus well below 1 (leak)", [&] {
                      double avg = 0.0;
                      for (const double r : reference) avg += r;
                      avg /= static_cast<double>(reference.size());
                      return avg > 0.1 && avg < 0.5;
                    }});

  util::Table table({"paper", "claim", "verdict"});
  int failures = 0;
  for (const auto& claim : claims) {
    const bool ok = claim.check();
    failures += ok ? 0 : 1;
    table.row().cell(claim.where).cell(claim.statement).cell(ok ? "PASS" : "FAIL");
  }
  table.print(std::cout, "Replication summary");
  std::cout << '\n'
            << (claims.size() - static_cast<std::size_t>(failures)) << '/'
            << claims.size() << " claims reproduced\n";
  return failures == 0 ? 0 : 1;
}
