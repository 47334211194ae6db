// Ablation — overlay parameters and protocols.
//
// The capacity analysis of Section 4.5 hinges on h (hops) and g (neighbors):
// D_it = h·l·W grows with h, S_it = g·N grows with g, and Pastry's digit
// base 2^b trades one for the other (bigger base -> fewer hops, larger
// routing table). This bench measures h and g for Pastry at b = 1/2/4/8 and
// for Chord, and shows the downstream effect on indirect-transmission cost.
#include <iostream>
#include <memory>

#include "cost/capacity_model.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "graph/synthetic_web.hpp"
#include "overlay/can.hpp"
#include "overlay/chord.hpp"
#include "overlay/pastry.hpp"
#include "partition/partitioner.hpp"
#include "transport/exchange.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv, "usage: ablation_overlay [--n=1024] [--samples=2000]\n");
  const auto n = flags.get<std::uint32_t>("n", 1024);
  const auto samples = flags.get<std::uint64_t>("samples", 2000);
  flags.finish();

  std::cout << "ablation: overlay choice (hops h vs neighbors g), N=" << n << "\n\n";

  struct Row {
    std::string label;
    std::unique_ptr<overlay::Overlay> overlay;
  };
  std::vector<Row> rows;
  for (const int b : {1, 2, 4, 8}) {
    overlay::PastryConfig cfg;
    cfg.num_nodes = n;
    cfg.bits_per_digit = b;
    cfg.seed = 11;
    rows.push_back({"pastry b=" + std::to_string(b),
                    std::make_unique<overlay::PastryOverlay>(cfg)});
  }
  {
    overlay::ChordConfig cfg;
    cfg.num_nodes = n;
    cfg.seed = 11;
    rows.push_back({"chord", std::make_unique<overlay::ChordOverlay>(cfg)});
  }
  for (const int d : {2, 4}) {
    overlay::CanConfig cfg;
    cfg.num_nodes = n;
    cfg.dimensions = d;
    cfg.seed = 11;
    rows.push_back({"can d=" + std::to_string(d),
                    std::make_unique<overlay::CanOverlay>(cfg)});
  }

  util::Table table({"overlay", "mean hops h", "max hops", "mean neighbors g",
                     "exchange msgs", "exchange bytes", "D_it model @3B pages"});
  for (const auto& row : rows) {
    const auto probe = overlay::probe_overlay(*row.overlay, samples, 3);
    const auto demand = transport::ExchangeDemand::all_pairs(n, 1);
    const auto report = transport::run_indirect_exchange(*row.overlay, demand, {});
    cost::CostParameters p;
    p.mean_neighbors = probe.mean_neighbors;
    const auto model = cost::indirect_cost(static_cast<double>(n), probe.mean_hops, p);
    table.row()
        .cell(row.label)
        .cell(probe.mean_hops, 2)
        .cell(probe.max_hops, 0)
        .cell(probe.mean_neighbors, 1)
        .cell(report.data_messages)
        .cell(util::format_bytes(report.total_bytes()))
        .cell(util::format_bytes(model.bytes));
  }
  table.print(std::cout, "Overlay ablation (indirect transmission, all-pairs round)");

  // ---- Full stack: DPR1 with Y messages routed over each overlay ----------
  // Ranker count is modest (route hops dominate only relative to each
  // other; per_hop_latency is the same everywhere), so the virtual
  // convergence time directly reflects each overlay's hop count.
  const std::uint32_t k = 64;
  const auto g = graph::generate_synthetic_web(graph::google2002_config(10000, 3));
  auto& pool = util::ThreadPool::shared();
  const auto reference = engine::open_system_reference(g, 0.85, pool);
  const auto assignment = partition::make_hash_url_partitioner()->partition(g, k);

  util::Table stack({"overlay", "mean hops/record", "virtual time to 0.01%"});
  for (const auto& row : rows) {
    if (row.overlay->num_nodes() < k) continue;
    engine::EngineOptions opts;
    opts.alpha = 0.85;
    opts.t1 = opts.t2 = 2.0;
    opts.overlay = row.overlay.get();
    opts.per_hop_latency = 1.0;
    opts.seed = 5;
    engine::DistributedRanking sim(g, assignment, k, opts, pool);
    sim.set_reference(reference);
    const auto result = sim.run_until_error(1e-4, 10000.0, 2.0);
    stack.row()
        .cell(row.label)
        .cell(static_cast<double>(sim.counters().record_hops) /
                  static_cast<double>(sim.counters().records_sent),
              2)
        .cell(result.reached ? util::format_double(result.time, 0)
                             : std::string("-"));
  }
  stack.print(std::cout,
              "Full stack: DPR1 over each overlay (K=64, 1 unit per hop)");

  std::cout << "\nshape check: larger Pastry base -> fewer hops, more neighbors;\n"
            << "indirect bytes scale with measured h (D_it = h*l*W);\n"
            << "fewer hops -> faster end-to-end convergence at equal hop cost.\n";
  return 0;
}
