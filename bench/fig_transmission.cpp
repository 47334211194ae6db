// Section 4.4 — direct vs indirect transmission (formulas 4.1–4.4).
//
// Two parts:
//  1. *Measured*: run a full all-pairs exchange round over an actual Pastry
//     overlay at several N and count messages/bytes for both schemes.
//  2. *Analytic*: evaluate the paper's closed forms up to N = 100 000 at
//     web scale (W = 3B), including the byte crossover where indirect
//     starts winning.
//
// Expected shape: direct messages grow ~(h+1)N², indirect stays ~g·N; direct
// wins bytes only for small N (the lookup term h·r·N² eventually dominates).
#include <iostream>

#include "cost/capacity_model.hpp"
#include "overlay/pastry.hpp"
#include "transport/exchange.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv,
                    "usage: fig_transmission [--max-n=512] [--records-per-pair=2]\n");
  const auto max_n = flags.get<std::uint32_t>("max-n", 512);
  const auto rpp = flags.get<std::uint64_t>("records-per-pair", 2);
  flags.finish();

  std::cout << "transmission: direct vs indirect (Section 4.4)\n\n";

  // ---- Part 1: measured on a real simulated overlay -----------------------
  util::Table measured({"N", "direct msgs", "indirect msgs", "msg ratio",
                        "direct bytes", "indirect bytes", "mean hops/record"});
  for (std::uint32_t n = 16; n <= max_n; n *= 2) {
    overlay::PastryConfig cfg;
    cfg.num_nodes = n;
    cfg.seed = 7;
    const overlay::PastryOverlay o(cfg);
    const auto demand = transport::ExchangeDemand::all_pairs(n, rpp);
    const auto direct = transport::run_direct_exchange(o, demand, {});
    const auto indirect = transport::run_indirect_exchange(o, demand, {});
    measured.row()
        .cell(std::uint64_t{n})
        .cell(direct.total_messages())
        .cell(indirect.data_messages)
        .cell(static_cast<double>(direct.total_messages()) /
                  static_cast<double>(indirect.data_messages),
              1)
        .cell(util::format_bytes(direct.total_bytes()))
        .cell(util::format_bytes(indirect.total_bytes()))
        .cell(static_cast<double>(indirect.record_hops) /
                  static_cast<double>(indirect.records_delivered),
              2);
  }
  measured.print(std::cout,
                 "Measured: one all-pairs exchange round over Pastry (b=4)");

  // ---- Part 2: the paper's closed forms at web scale -----------------------
  cost::CostParameters p;  // W = 3e9, l = 100, r = 50, g = 32
  util::Table analytic({"N", "h", "S_dt=(h+1)N^2", "S_it=gN", "D_dt=lW+hrN^2",
                        "D_it=hlW"});
  for (const std::uint64_t n : {100ULL, 1000ULL, 10000ULL, 100000ULL}) {
    const double h = cost::paper_pastry_hops(n);
    const auto dt = cost::direct_cost(static_cast<double>(n), h, p);
    const auto it = cost::indirect_cost(static_cast<double>(n), h, p);
    analytic.row()
        .cell(std::uint64_t{n})
        .cell(h, 1)
        .cell(static_cast<std::uint64_t>(dt.messages))
        .cell(static_cast<std::uint64_t>(it.messages))
        .cell(util::format_bytes(dt.bytes))
        .cell(util::format_bytes(it.bytes));
  }
  analytic.print(std::cout, "Analytic (W = 3B pages): formulas 4.1-4.4");

  const auto crossover = cost::byte_crossover_n(p);
  std::cout << "\nbyte crossover (indirect ships fewer bytes than direct) at N ~ "
            << crossover << '\n'
            << "paper shape check:\n"
            << "  indirect messages scale O(N) vs direct O(N^2):  yes (see ratio)\n"
            << "  direct wins bytes only for small N:             "
            << (crossover > 1000 ? "yes" : "check") << '\n';
  return 0;
}
